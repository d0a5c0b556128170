//! Skeleton golden: the concurrency skeleton of every default
//! example-database pair, pinned bit for bit.
//!
//! Each pair's racy code is skeletonized the way `ExampleDb` embeds it
//! (no racy lines, the pair's racy variable as an extra racy name). An
//! FNV-1a hash over every skeleton's text and racy-variable order pins
//! the slicer and the renamer together: any change in what a skeleton
//! keeps or in the fresh names it hands out shows here.

use corpus::CorpusConfig;
use drfix::fleet::{fnv1a64_fold, FNV1A_OFFSET};
use skeleton::{skeletonize, SkeletonOptions};

#[test]
fn example_db_skeletons_are_pinned() {
    let pairs = corpus::generate_example_db(&CorpusConfig::default());
    let mut hash = FNV1A_OFFSET;
    let mut failed = 0;
    for p in &pairs {
        let opts = SkeletonOptions {
            extra_racy_vars: vec![p.racy_var.clone()],
        };
        match skeletonize(&p.buggy, &[], &opts) {
            Ok(sk) => {
                hash = fnv1a64_fold(hash, sk.text.as_bytes());
                for v in &sk.racy_vars {
                    hash = fnv1a64_fold(hash, &[0xFF]);
                    hash = fnv1a64_fold(hash, v.as_bytes());
                }
            }
            Err(_) => {
                failed += 1;
                hash = fnv1a64_fold(hash, &[0xFE]);
            }
        }
        hash = fnv1a64_fold(hash, &[0xFD]);
    }
    assert_eq!(
        format!("pairs {} failed {failed} hash {hash:#018x}", pairs.len()),
        "pairs 272 failed 0 hash 0x93f96ab8291313ec",
        "skeleton golden drifted"
    );
}
