//! `vecdb` — an in-memory vector database (the ChromaDB substitute,
//! Table 2 of the paper).
//!
//! Dr.Fix stores `(skeleton embedding) → (racy code, fixed code)` entries
//! and retrieves the nearest example by cosine similarity (§3.1, §3.4).
//! This store keeps vectors in a flat arena and brute-force scans on
//! query — exact top-k, deterministic ties (lowest insertion id wins).
//! Queries use partial top-k selection (`select_nth_unstable` then a
//! sort of the k survivors), so per-query cost is O(n + k log k) instead
//! of the full O(n log n) sort; a property test pins them hit-for-hit
//! identical to a full sort.
//!
//! # Example
//!
//! ```
//! use vecdb::VectorStore;
//!
//! let mut db: VectorStore<&str> = VectorStore::new(3);
//! db.insert(vec![1.0, 0.0, 0.0], "x-axis")?;
//! db.insert(vec![0.0, 1.0, 0.0], "y-axis")?;
//! let hits = db.query(&[0.9, 0.1, 0.0], 1);
//! assert_eq!(*hits[0].item, "x-axis");
//! # Ok::<(), vecdb::DimensionError>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Error returned when a vector's dimensionality does not match the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionError {
    /// Expected dimensionality.
    pub expected: usize,
    /// Provided dimensionality.
    pub got: usize,
}

impl fmt::Display for DimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vector dimensionality mismatch: expected {}, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for DimensionError {}

/// One query hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit<'a, M> {
    /// Insertion id of the entry.
    pub id: usize,
    /// Cosine similarity to the query.
    pub score: f32,
    /// The stored metadata.
    pub item: &'a M,
}

/// A brute-force exact-cosine vector store.
#[derive(Debug, Clone)]
pub struct VectorStore<M> {
    dim: usize,
    vectors: Vec<Vec<f32>>,
    items: Vec<M>,
}

impl<M> VectorStore<M> {
    /// Creates an empty store for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        VectorStore {
            dim,
            vectors: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Store dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Inserts a vector with its metadata; returns the entry id.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when the vector has the wrong length.
    pub fn insert(&mut self, vector: Vec<f32>, item: M) -> Result<usize, DimensionError> {
        if vector.len() != self.dim {
            return Err(DimensionError {
                expected: self.dim,
                got: vector.len(),
            });
        }
        self.vectors.push(vector);
        self.items.push(item);
        Ok(self.items.len() - 1)
    }

    /// Returns the `k` nearest entries by cosine similarity, best first.
    /// Ties break toward the earliest-inserted entry, so queries are
    /// fully deterministic.
    ///
    /// Uses partial selection: only the k best entries are ever sorted,
    /// so the cost is O(n + k log k) rather than O(n log n). The
    /// ordering is identical to a full sort: `(score desc, insertion id
    /// asc)` is a total order, so the selected prefix and its sort are
    /// unique.
    pub fn query(&self, vector: &[f32], k: usize) -> Vec<Hit<'_, M>> {
        if k == 0 || self.items.is_empty() {
            return Vec::new();
        }
        let mut scored: Vec<(usize, f32)> = self
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i, cosine(vector, v)))
            .collect();
        if k < scored.len() {
            scored.select_nth_unstable_by(k - 1, rank);
            scored.truncate(k);
        }
        scored.sort_unstable_by(rank);
        scored
            .into_iter()
            .map(|(i, score)| Hit {
                id: i,
                score,
                item: &self.items[i],
            })
            .collect()
    }

    /// Returns the stored entry by id.
    pub fn get(&self, id: usize) -> Option<&M> {
        self.items.get(id)
    }

    /// Iterates all `(id, item)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &M)> {
        self.items.iter().enumerate()
    }
}

/// The query ranking: score descending, then insertion id ascending.
/// Cosine scores are never NaN (zero norms map to 0.0), and the id
/// tiebreak makes this a total order — required for `select_nth` and
/// sort to agree exactly.
fn rank(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query_top1() {
        let mut db = VectorStore::new(2);
        db.insert(vec![1.0, 0.0], "east").unwrap();
        db.insert(vec![0.0, 1.0], "north").unwrap();
        let hits = db.query(&[0.8, 0.2], 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].item, "east");
        assert!(hits[0].score > 0.9);
    }

    #[test]
    fn query_orders_by_similarity() {
        let mut db = VectorStore::new(3);
        db.insert(vec![1.0, 0.0, 0.0], 0).unwrap();
        db.insert(vec![0.7, 0.7, 0.0], 1).unwrap();
        db.insert(vec![0.0, 0.0, 1.0], 2).unwrap();
        let hits = db.query(&[1.0, 0.1, 0.0], 3);
        let order: Vec<i32> = hits.iter().map(|h| *h.item).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(hits[0].score >= hits[1].score);
        assert!(hits[1].score >= hits[2].score);
    }

    #[test]
    fn ties_break_deterministically_by_insertion_order() {
        let mut db = VectorStore::new(2);
        db.insert(vec![1.0, 0.0], "first").unwrap();
        db.insert(vec![1.0, 0.0], "second").unwrap();
        let hits = db.query(&[1.0, 0.0], 2);
        assert_eq!(*hits[0].item, "first");
        assert_eq!(*hits[1].item, "second");
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let mut db: VectorStore<()> = VectorStore::new(3);
        let err = db.insert(vec![1.0], ()).unwrap_err();
        assert_eq!(err.expected, 3);
        assert_eq!(err.got, 1);
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let mut db = VectorStore::new(1);
        db.insert(vec![1.0], "only").unwrap();
        let hits = db.query(&[1.0], 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_store_returns_no_hits() {
        let db: VectorStore<u8> = VectorStore::new(4);
        assert!(db.query(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());
        assert!(db.is_empty());
    }
}
