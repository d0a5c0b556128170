//! Property tests: top-k queries match a brute-force scan exactly.

use proptest::prelude::*;
use vecdb::VectorStore;

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

proptest! {
    #[test]
    fn query_matches_brute_force(
        vecs in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 4), 1..30),
        q in proptest::collection::vec(-10.0f32..10.0, 4),
        k in 1usize..5,
    ) {
        let mut store = VectorStore::new(4);
        for (i, v) in vecs.iter().enumerate() {
            store.insert(v.clone(), i).unwrap();
        }
        let hits = store.query(&q, k);
        let mut scored: Vec<(usize, f32)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i, cosine(&q, v)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
        });
        for (hit, (want_id, want_score)) in hits.iter().zip(scored.iter()) {
            prop_assert_eq!(hit.id, *want_id);
            prop_assert!((hit.score - want_score).abs() < 1e-5);
        }
        prop_assert_eq!(hits.len(), k.min(vecs.len()));
    }
}
