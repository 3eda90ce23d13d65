//! Property test: incremental view maintenance is equivalent to recompute.

use saga_core::synth::{generate, SynthConfig};
use saga_core::{Triple, Value};
use saga_graph::{GraphView, ViewDef};
use saga_testkit::check;

#[test]
fn view_maintenance_equals_recompute() {
    check(24, 1, |rng| {
        let seed = rng.gen_range(0u64..500);
        let min_freq = rng.gen_range(0usize..8);
        let ops = saga_testkit::vec(rng, 1..30, |rng| {
            (rng.gen_range(0usize..50), rng.gen_range(0usize..50), rng.gen::<bool>())
        });
        let mut s = generate(&SynthConfig::tiny(seed));
        let def = ViewDef::embedding_training(min_freq);
        let mut view = GraphView::materialize(&s.kg, def.clone());

        for (i, (a, b, add)) in ops.iter().enumerate() {
            let pa = s.people[a % s.people.len()];
            let pb = s.people[b % s.people.len()];
            if pa == pb {
                continue;
            }
            let pred =
                if i % 3 == 0 { s.preds.rare[i % s.preds.rare.len()] } else { s.preds.spouse };
            let t = Triple::new(pa, pred, Value::Entity(pb));
            if *add {
                s.kg.insert(t);
            } else {
                s.kg.remove(&t);
            }
            if i % 4 == 3 {
                let keys = s.kg.commit();
                let delta = s.kg.decode_delta(&keys);
                view.apply_delta(&s.kg, &delta);
            }
        }
        let keys = s.kg.commit();
        let delta = s.kg.decode_delta(&keys);
        view.apply_delta(&s.kg, &delta);

        let fresh = GraphView::materialize(&s.kg, def);
        let mut a: Vec<String> = view.triples().map(|t| format!("{t:?}")).collect();
        let mut b: Vec<String> = fresh.triples().map(|t| format!("{t:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    });
}
