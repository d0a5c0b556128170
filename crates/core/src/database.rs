//! Step 0 (§3.1/§4.1): the example database.
//!
//! Each curated `(racy, fixed)` pair is stored twice: keyed by the
//! embedding of its concurrency *skeleton* (Dr.Fix's design) and keyed by
//! the embedding of its *raw* source (the "RAG without skeleton"
//! ablation arm of Fig. 3).

use crate::fleet;
use serde::{Deserialize, Serialize};
use skeleton::{skeletonize, SkeletonOptions};
use synthllm::Example;
use vecdb::VectorStore;

/// How examples are retrieved (Fig. 3's three arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RagMode {
    /// No example: the LLM's inherent capability only.
    None,
    /// Retrieval over raw source text.
    Raw,
    /// Retrieval over concurrency skeletons (the paper's design).
    Skeleton,
}

/// A stored example with provenance.
#[derive(Debug, Clone)]
pub struct DbEntry {
    /// The racy code.
    pub buggy: String,
    /// The accepted fix.
    pub fixed: String,
    /// Category label (for retrieval-accuracy accounting).
    pub category: synthllm::RaceCategory,
}

/// The example database: one vector store per retrieval mode, shared
/// read-only across fleet workers.
pub struct ExampleDb {
    skeleton_store: VectorStore<DbEntry>,
    raw_store: VectorStore<DbEntry>,
}

impl ExampleDb {
    /// Builds the database from curated pairs (populating it is the
    /// "one-time activity" of §4.1). Skeletonizing and embedding the
    /// pairs is sharded across the machine's cores; the stores are filled
    /// in pair order afterwards, so the result is bit-identical to a
    /// serial build.
    pub fn build(pairs: &[corpus::DbPair]) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let embedded = fleet::run_indexed(threads, pairs.len(), |i| embed_pair(&pairs[i]));
        Self::from_embedded(pairs, embedded)
    }

    /// Fills the stores from `pairs` and their `(skeleton, raw)`
    /// embeddings, in pair order.
    fn from_embedded(pairs: &[corpus::DbPair], embedded: Vec<(Vec<f32>, Vec<f32>)>) -> Self {
        let mut skeleton_store = VectorStore::new(embed::DIM);
        let mut raw_store = VectorStore::new(embed::DIM);
        for (p, (sk_vec, raw_vec)) in pairs.iter().zip(embedded) {
            let entry = DbEntry {
                buggy: p.buggy.clone(),
                fixed: p.fixed.clone(),
                category: p.category,
            };
            let _ = skeleton_store.insert(sk_vec, entry.clone());
            let _ = raw_store.insert(raw_vec, entry);
        }
        ExampleDb {
            skeleton_store,
            raw_store,
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.skeleton_store.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.skeleton_store.is_empty()
    }

    /// Retrieves the best example for the query code, per mode. Returns
    /// the example and its stored category (for accounting).
    pub fn retrieve(
        &self,
        mode: RagMode,
        code: &str,
        racy_var: &str,
        racy_lines: &[u32],
    ) -> Option<(Example, synthllm::RaceCategory, f32)> {
        let store = match mode {
            RagMode::None => return None,
            RagMode::Raw => &self.raw_store,
            RagMode::Skeleton => &self.skeleton_store,
        };
        let q = query_embedding(mode, code, racy_var, racy_lines);
        let hit = store.query(&q, 1).into_iter().next()?;
        Some((
            Example {
                buggy: hit.item.buggy.clone(),
                fixed: hit.item.fixed.clone(),
            },
            hit.item.category,
            hit.score,
        ))
    }
}

/// Computes the embedding for one query.
fn query_embedding(mode: RagMode, code: &str, racy_var: &str, racy_lines: &[u32]) -> Vec<f32> {
    match mode {
        RagMode::None => unreachable!("None mode never embeds"),
        RagMode::Raw => embed::embed(code),
        RagMode::Skeleton => {
            let sk = skeletonize(
                code,
                racy_lines,
                &SkeletonOptions {
                    extra_racy_vars: vec![racy_var.to_owned()],
                    no_slicing: false,
                },
            )
            .map(|s| s.text)
            .unwrap_or_else(|_| code.to_owned());
            embed::embed(&sk)
        }
    }
}

/// One pair's `(skeleton, raw)` embeddings. A pair whose racy code does
/// not skeletonize is keyed by its raw text in both stores.
fn embed_pair(p: &corpus::DbPair) -> (Vec<f32>, Vec<f32>) {
    let sk_text = skeletonize(
        &p.buggy,
        &[],
        &SkeletonOptions {
            extra_racy_vars: vec![p.racy_var.clone()],
            no_slicing: false,
        },
    )
    .map(|s| s.text)
    .unwrap_or_else(|_| p.buggy.clone());
    (embed::embed(&sk_text), embed::embed(&p.buggy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusConfig;

    fn small_db() -> ExampleDb {
        let pairs = corpus::generate_example_db(&CorpusConfig {
            eval_cases: 0,
            db_pairs: 60,
            seed: 42,
        });
        ExampleDb::build(&pairs)
    }

    #[test]
    fn builds_both_stores() {
        let db = small_db();
        assert_eq!(db.len(), 60);
        assert!(!db.is_empty());
    }

    #[test]
    fn skeleton_retrieval_beats_raw_on_category_accuracy() {
        let db = small_db();
        // Fresh queries from the same generator (different seed): measure
        // how often the retrieved example has the query's category.
        let queries = corpus::generate_eval_corpus(&CorpusConfig {
            eval_cases: 60,
            db_pairs: 0,
            seed: 4242,
        });
        let mut skel_hits = 0usize;
        let mut raw_hits = 0usize;
        let mut total = 0usize;
        for q in queries.iter().filter(|c| c.fixable) {
            let code = &q.files[0].1;
            // The pipeline passes the report's racy variable; the
            // templates record it in a `// racy:` comment.
            let var = code
                .lines()
                .find_map(|l| {
                    l.trim()
                        .strip_prefix("// racy:")
                        .map(|v| v.trim().to_owned())
                })
                .unwrap_or_else(|| "x".to_owned());
            total += 1;
            if let Some((_, cat, _)) = db.retrieve(RagMode::Skeleton, code, &var, &[]) {
                if cat == q.category {
                    skel_hits += 1;
                }
            }
            if let Some((_, cat, _)) = db.retrieve(RagMode::Raw, code, &var, &[]) {
                if cat == q.category {
                    raw_hits += 1;
                }
            }
        }
        assert!(total > 10);
        assert!(
            skel_hits > raw_hits,
            "skeleton retrieval ({skel_hits}/{total}) must beat raw ({raw_hits}/{total})"
        );
        assert!(
            skel_hits * 10 >= total * 7,
            "skeleton retrieval should be mostly right: {skel_hits}/{total}"
        );
    }

    #[test]
    fn none_mode_returns_nothing() {
        let db = small_db();
        assert!(db.retrieve(RagMode::None, "package p", "x", &[]).is_none());
    }

    #[test]
    fn repeat_queries_retrieve_identically() {
        let db = small_db();
        let code =
            "package p\n\nfunc f() {\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t}()\n\t_ = x\n}\n";
        let key = |r: Option<(Example, synthllm::RaceCategory, f32)>| {
            let (e, c, s) = r.unwrap();
            (e.buggy, c, s.to_bits())
        };
        let first = key(db.retrieve(RagMode::Skeleton, code, "x", &[5]));
        let second = key(db.retrieve(RagMode::Skeleton, code, "x", &[5]));
        assert_eq!(first, second, "identical queries must retrieve identically");
        // Raw embeds the code alone: var and lines must not matter.
        let raw = key(db.retrieve(RagMode::Raw, code, "x", &[5]));
        assert_eq!(raw, key(db.retrieve(RagMode::Raw, code, "other", &[9])));
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let pairs = corpus::generate_example_db(&CorpusConfig {
            eval_cases: 0,
            db_pairs: 40,
            seed: 77,
        });
        let serial = ExampleDb::from_embedded(&pairs, pairs.iter().map(embed_pair).collect());
        let parallel = ExampleDb::build(&pairs);
        assert_eq!(serial.len(), parallel.len());
        let probe = &pairs[17].buggy;
        let a = serial.retrieve(RagMode::Skeleton, probe, &pairs[17].racy_var, &[]);
        let b = parallel.retrieve(RagMode::Skeleton, probe, &pairs[17].racy_var, &[]);
        let (ea, ca, sa) = a.unwrap();
        let (eb, cb, sb) = b.unwrap();
        assert_eq!(
            (ea.buggy, ea.fixed, ca, sa.to_bits()),
            (eb.buggy, eb.fixed, cb, sb.to_bits())
        );
    }
}
