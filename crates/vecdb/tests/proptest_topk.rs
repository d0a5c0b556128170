//! Differential property tests: the partial top-k `query` must be
//! hit-for-hit identical to a full sort of every entry — same ids, same
//! scores, same order — including tied scores (duplicated vectors) and
//! zero-norm vectors (which all score 0.0 and tie).

use proptest::prelude::*;
use vecdb::VectorStore;

/// Builds a store whose entries deliberately include exact duplicates
/// (score ties) and all-zero vectors (zero-norm ties at 0.0). Returns
/// the store and its vectors in insertion order.
fn build_store(
    vecs: &[Vec<f32>],
    dup_every: usize,
    zero_every: usize,
) -> (VectorStore<usize>, Vec<Vec<f32>>) {
    let dim = vecs.first().map(|v| v.len()).unwrap_or(3);
    let mut store = VectorStore::new(dim);
    let mut inserted = Vec::new();
    for (i, v) in vecs.iter().enumerate() {
        let v = if zero_every > 0 && i % zero_every == 0 {
            vec![0.0; dim]
        } else {
            v.clone()
        };
        let copies = 1 + usize::from(dup_every > 0 && i % dup_every == 0);
        for _ in 0..copies {
            store.insert(v.clone(), inserted.len()).unwrap();
            inserted.push(v.clone());
        }
    }
    (store, inserted)
}

/// The library's cosine, term for term, so reference scores match
/// bit for bit.
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

/// The reference: score every entry, sort by score descending then
/// insertion id ascending, keep the first `k`.
fn full_sort(inserted: &[Vec<f32>], q: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = inserted
        .iter()
        .enumerate()
        .map(|(i, v)| (i, cosine(q, v)))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

proptest! {
    #[test]
    fn partial_topk_is_identical_to_full_sort(
        vecs in proptest::collection::vec(
            proptest::collection::vec(-4.0f32..4.0, 3), 1..40),
        q in proptest::collection::vec(-4.0f32..4.0, 3),
        k in 0usize..45,
        dup_every in 0usize..4,
        zero_every in 0usize..5,
    ) {
        let (store, inserted) = build_store(&vecs, dup_every, zero_every);
        let fast = store.query(&q, k);
        let slow = full_sort(&inserted, &q, k);
        prop_assert_eq!(fast.len(), slow.len());
        for (f, &(id, score)) in fast.iter().zip(slow.iter()) {
            prop_assert_eq!(f.id, id, "ids diverged at k={}", k);
            // Same entry, same arithmetic: scores must be bitwise equal.
            prop_assert_eq!(f.score.to_bits(), score.to_bits());
            prop_assert_eq!(*f.item, id);
        }
    }

    #[test]
    fn zero_norm_queries_tie_everywhere_and_still_agree(
        vecs in proptest::collection::vec(
            proptest::collection::vec(-4.0f32..4.0, 3), 1..25),
        k in 1usize..30,
    ) {
        // A zero query scores every entry 0.0: the whole store is one
        // giant tie, so this pins the tie-break path specifically.
        let (store, inserted) = build_store(&vecs, 2, 3);
        let fast = store.query(&[0.0, 0.0, 0.0], k);
        let slow = full_sort(&inserted, &[0.0, 0.0, 0.0], k);
        let fast_ids: Vec<usize> = fast.iter().map(|h| h.id).collect();
        let slow_ids: Vec<usize> = slow.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(&fast_ids, &slow_ids);
        // Ties break toward insertion order: ids must be ascending.
        prop_assert!(fast_ids.windows(2).all(|w| w[0] < w[1]));
    }
}
