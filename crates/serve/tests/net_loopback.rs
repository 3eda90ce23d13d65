//! Loopback end-to-end test: a real `NetServer` on a `127.0.0.1` TCP
//! socket, queried through `SagaClient`. Results must be bit-identical to
//! the in-process serving path (`oracle_lookup`/`oracle_search` run the
//! same partition/search/merge code `ShardedService` uses), deadlines must
//! propagate over the wire, and shutdown must drain gracefully.

use saga_core::obs::Registry;
use saga_serve::net::client::{ClientConfig, SagaClient};
use saga_serve::net::server::{oracle_lookup, oracle_search, NetServer, NetServerConfig};
use saga_serve::net::transport::{Acceptor, TcpAcceptor, TcpTransport};
use saga_serve::net::wire::{RequestBody, ResponseBody};
use std::sync::Arc;

const WORLD_SEED: u64 = 11;

fn start_server() -> (NetServer, String, Registry) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.local();
    let registry = Registry::new();
    let server =
        NetServer::start(Box::new(acceptor), NetServerConfig::small(WORLD_SEED), &registry);
    (server, addr, registry)
}

fn connect(addr: &str) -> SagaClient {
    SagaClient::new(Arc::new(TcpTransport::new(addr)), ClientConfig::default())
}

#[test]
fn loopback_matches_in_process_serving_path() {
    let (server, addr, _registry) = start_server();
    let client = connect(&addr);
    let cfg = NetServerConfig::small(WORLD_SEED);

    assert_eq!(client.ping().expect("ping"), ResponseBody::Pong);

    let looked = client.lookup(3).expect("lookup");
    assert_eq!(
        looked,
        ResponseBody::LookupOk { entity: 3, fact_count: oracle_lookup(&cfg, 3) },
        "network lookup diverged from the in-process path"
    );

    let searched = client.search(42, 8).expect("search");
    assert_eq!(
        searched,
        ResponseBody::SearchOk { hits: oracle_search(&cfg, 42, 8) },
        "network search diverged from the in-process path"
    );

    let batched = client
        .batch(vec![
            RequestBody::Lookup { entity: 7 },
            RequestBody::Search { query_seed: 13, k: 4 },
            RequestBody::Ping,
        ])
        .expect("batch");
    assert_eq!(
        batched,
        ResponseBody::BatchOk(vec![
            ResponseBody::LookupOk { entity: 7, fact_count: oracle_lookup(&cfg, 7) },
            ResponseBody::SearchOk { hits: oracle_search(&cfg, 13, 4) },
            ResponseBody::Pong,
        ]),
        "batched responses diverged from the in-process path"
    );

    // Clean sequential traffic rode one pooled connection and required no
    // retries.
    let cstats = client.stats();
    assert_eq!(cstats.calls, 4);
    assert_eq!(cstats.attempts, 4, "clean loopback traffic must not retry");
    assert_eq!(cstats.retries, 0);

    let stats = server.shutdown();
    assert_eq!(stats.requests, 4, "every frame must be counted");
    // served counts logical operations: ping + lookup + search + the three
    // batch items.
    assert_eq!(stats.served, 6);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.connections, 1, "sequential calls should reuse the pooled conn");
}

/// One `Batch` whose searches share a scan on each shard — different `k`s
/// (the scan runs at the largest, each item gets its own prefix) and one
/// seed twice (scanned once) — answers every item exactly as that search
/// alone would: item by item equal to `oracle_search`.
#[test]
fn batched_searches_equal_the_oracle_item_by_item() {
    let (server, addr, _registry) = start_server();
    let client = connect(&addr);
    let cfg = NetServerConfig::small(WORLD_SEED);

    let searches: [(u64, u32); 7] =
        [(21, 10), (22, 1), (23, 4), (21, 4), (24, 10), (22, 1), (21, 1)];
    let items = searches.iter().map(|&(query_seed, k)| RequestBody::Search { query_seed, k });
    let batched = client.batch(items.collect()).expect("batch");
    let ResponseBody::BatchOk(replies) = batched else { panic!("{batched:?}") };
    assert_eq!(replies.len(), searches.len());
    for (reply, &(query_seed, k)) in replies.iter().zip(&searches) {
        let want = oracle_search(&cfg, query_seed, k);
        assert_eq!(want.len(), k as usize);
        assert_eq!(reply, &ResponseBody::SearchOk { hits: want }, "seed {query_seed} k {k}");
    }

    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.served, stats.shed), (1, 7, 0));
}

#[test]
fn deadline_propagates_over_tcp() {
    let (server, addr, _registry) = start_server();

    // A 1µs relative deadline is expired by the time the engine dequeues
    // it: the server must answer Expired, not silently drop the request.
    let client = SagaClient::new(
        Arc::new(TcpTransport::new(&addr)),
        ClientConfig { deadline_micros: 1, ..ClientConfig::default() },
    );
    assert_eq!(client.search(5, 4).expect("call completes"), ResponseBody::Expired);

    let stats = server.shutdown();
    assert!(stats.expired >= 1, "expired work must be counted, got {stats:?}");
    assert_eq!(stats.served, 0);
}

#[test]
fn shutdown_is_graceful_for_subsequent_dials() {
    let (server, addr, _registry) = start_server();
    let client = connect(&addr);
    assert_eq!(client.ping().expect("ping"), ResponseBody::Pong);
    let stats = server.shutdown();
    assert_eq!(stats.served, 1);

    // After shutdown the endpoint is gone: a fresh client sees typed
    // errors (connection refused / timeout), never a hang or panic.
    let late = SagaClient::new(
        Arc::new(TcpTransport::new(&addr)),
        ClientConfig {
            retry: saga_core::fault::RetryPolicy::no_retries(),
            ..ClientConfig::default()
        },
    );
    assert!(late.ping().is_err(), "dial after shutdown must fail with a typed error");
}
