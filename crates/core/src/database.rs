//! Step 0 (§3.1/§4.1): the example database.
//!
//! Each curated `(racy, fixed)` pair is stored once, keyed twice: by the
//! embedding of its concurrency *skeleton* (Dr.Fix's design) and by the
//! embedding of its *raw* source (the "RAG without skeleton" ablation
//! arm of Fig. 3). Retrieval returns the single most similar pair.

use crate::fleet;
use serde::{Deserialize, Serialize};
use skeleton::{skeletonize, SkeletonOptions};
use synthllm::{Example, RaceCategory};

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

/// The example database: every pair with its category, plus one key
/// array per retrieval mode, shared read-only across fleet workers.
pub struct ExampleDb {
    pairs: Vec<(Example, RaceCategory)>,
    skeleton_keys: Vec<Vec<f32>>,
    raw_keys: Vec<Vec<f32>>,
}

impl ExampleDb {
    /// Builds the database from curated pairs (populating it is the
    /// "one-time activity" of §4.1). Skeletonizing and embedding the
    /// pairs is sharded across the machine's cores; the keys are stored
    /// in pair order afterwards, so the result is bit-identical to a
    /// serial build.
    pub fn build(pairs: &[corpus::DbPair]) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let embedded = fleet::run_indexed(threads, pairs.len(), |i| embed_pair(&pairs[i]));
        Self::from_embedded(pairs, embedded)
    }

    /// Stores `pairs` with their `(skeleton, raw)` embeddings, in pair
    /// order.
    fn from_embedded(pairs: &[corpus::DbPair], embedded: Vec<(Vec<f32>, Vec<f32>)>) -> Self {
        let (skeleton_keys, raw_keys) = embedded.into_iter().unzip();
        let pairs = pairs
            .iter()
            .map(|p| {
                let example = Example {
                    buggy: p.buggy.clone(),
                    fixed: p.fixed.clone(),
                };
                (example, p.category)
            })
            .collect();
        ExampleDb {
            pairs,
            skeleton_keys,
            raw_keys,
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Retrieves the best example for the query code, per mode: the pair
    /// whose key has the highest cosine similarity to the query's
    /// embedding, the earliest pair on a tie. Returns the example, its
    /// stored category (for accounting) and the score.
    pub fn retrieve(
        &self,
        mode: RagMode,
        code: &str,
        racy_var: &str,
        racy_lines: &[u32],
    ) -> Option<(Example, RaceCategory, f32)> {
        let keys = match mode {
            RagMode::None => return None,
            RagMode::Raw => &self.raw_keys,
            RagMode::Skeleton => &self.skeleton_keys,
        };
        let q = query_embedding(mode, code, racy_var, racy_lines);
        let mut best: Option<(usize, f32)> = None;
        for (i, key) in keys.iter().enumerate() {
            let score = embed::cosine(&q, key);
            if best.map_or(true, |(_, top)| score > top) {
                best = Some((i, score));
            }
        }
        let (i, score) = best?;
        let (example, category) = &self.pairs[i];
        Some((example.clone(), *category, score))
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
        let key = |r: Option<(Example, RaceCategory, f32)>| {
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
    fn ties_go_to_the_earliest_pair() {
        // Identical racy code keys both pairs identically in both modes.
        let racy =
            "package p\n\nfunc f() {\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t}()\n\t_ = x\n}\n";
        let pair = |category: RaceCategory| corpus::DbPair {
            buggy: racy.to_owned(),
            fixed: format!("{category:?}"),
            racy_var: "x".to_owned(),
            category,
        };
        let db = ExampleDb::build(&[
            pair(RaceCategory::MissingSync),
            pair(RaceCategory::ConcurrentMap),
        ]);
        for mode in [RagMode::Raw, RagMode::Skeleton] {
            let (example, category, _) = db.retrieve(mode, racy, "x", &[]).unwrap();
            assert_eq!(category, RaceCategory::MissingSync, "{mode:?}");
            assert_eq!(example.fixed, "MissingSync", "{mode:?}");
        }
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
