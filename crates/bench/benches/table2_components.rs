//! Table 2: the components of Dr.Fix and what this reproduction maps
//! them to — printed with one live smoke check per component.

use bench::header;
use corpus::DbPair;
use drfix::{ExampleDb, RagMode};
use synthllm::RaceCategory;

fn main() {
    header(
        "Table 2 — components of Dr.Fix and their implementations",
        "§4, Table 2",
    );
    let rows = [
        (
            "Data store D",
            "ChromaDB",
            "drfix::ExampleDb (exact cosine argmax over stored pairs)",
        ),
        (
            "Skeletonization S",
            "AST-based program slicing",
            "skeleton::skeletonize (concurrency constructs + racy vars)",
        ),
        (
            "Embedding E",
            "all-MiniLM-L6-v2 (384-d)",
            "embed::embed (384-d feature hashing, L2-normalised)",
        ),
        ("Similarity φ", "cosine similarity", "embed::cosine"),
        (
            "Model M",
            "GPT-4 Turbo / 4o / o1-preview",
            "synthllm::SynthLlm (diagnosers + real AST rewrites + tier model)",
        ),
        (
            "Extra params H",
            "past context and failure info",
            "synthllm::Feedback threaded by drfix::pipeline",
        ),
        (
            "Validator V",
            "package tests x1000",
            "drfix::validate_patch_report (N seeded schedules + bug hash)",
        ),
    ];
    println!(
        "{:<20} {:<32} This reproduction",
        "Component", "Paper choice"
    );
    for (c, p, r) in rows {
        println!("{c:<20} {p:<32} {r}");
    }

    // Smoke check: a pair stored in the example database (skeletonized
    // and embedded on the way in) is what its own racy code retrieves.
    let buggy = "package p\n\nfunc f() {\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t}()\n\tx = 2\n}\n";
    let db = ExampleDb::build(&[DbPair {
        buggy: buggy.to_owned(),
        fixed: "probe fix".to_owned(),
        racy_var: "x".to_owned(),
        category: RaceCategory::CaptureByReference,
    }]);
    let (example, _, score) = db
        .retrieve(RagMode::Skeleton, buggy, "x", &[6, 8])
        .expect("example database lives");
    assert_eq!(example.fixed, "probe fix");
    assert!(score > 0.99, "a pair must retrieve itself, scored {score}");
    println!("\nsmoke check: skeletonizer → embedder → example database round-trip OK");
}
