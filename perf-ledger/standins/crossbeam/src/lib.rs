//! Offline stand-in for `crossbeam`: `thread::scope` with crossbeam's shape
//! (the spawn closure takes the scope, `scope` returns a `Result`) over
//! `std::thread::scope`.

pub mod thread {
    use std::any::Any;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle { inner: inner.spawn(move || f(&Scope { inner })) }
        }
    }

    /// Runs `f` with a scope whose threads are all joined before returning.
    /// A panic in an unjoined thread propagates (std's rule) instead of
    /// coming back as `Err`; every caller unwraps the result anyway.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
