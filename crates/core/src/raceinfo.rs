//! Race Info Extraction (§4.2): from a ThreadSanitizer-style report to
//! candidate fix locations and scopes.

use golite::ParsedFile;
use racedet::RaceReport;
use serde::{Deserialize, Serialize};

/// The three fix-location kinds of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocationKind {
    /// The test function that exercised the race (root frame).
    Test,
    /// The leaf functions of the racing stacks.
    Leaf,
    /// The lowest common ancestor of the two goroutines.
    Lca,
}

impl LocationKind {
    /// The paper's attempt order: `[TEST, LEAF, LCA]` (Listing 13).
    pub fn default_order() -> Vec<LocationKind> {
        vec![LocationKind::Test, LocationKind::Leaf, LocationKind::Lca]
    }
}

/// One candidate fix location: a function in a file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixLocation {
    /// Which extraction rule produced it.
    pub kind: LocationKind,
    /// The function name.
    pub function: String,
    /// The file it lives in.
    pub file: String,
    /// Racy line numbers within that file (when the location contains a
    /// racy access).
    pub lines: Vec<u32>,
}

/// Everything the pipeline extracts from one race report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaceInfo {
    /// The racy variable named by the report.
    pub racy_var: String,
    /// The stable bug hash (used to confirm elimination, §4.2).
    pub bug_hash: String,
    /// Candidate locations in attempt order, deduplicated.
    pub locations: Vec<FixLocation>,
}

/// Extracts candidate fix locations from a report, resolving function
/// names to the files of `codebase` (`(name, source)` pairs). Each file
/// is parsed once, however many frames resolve against it; a file that
/// does not parse declares nothing.
pub fn extract(report: &RaceReport, codebase: &[(String, String)]) -> RaceInfo {
    let parsed: Vec<ParsedFile> = codebase
        .iter()
        .filter_map(|(name, src)| Some((name.clone(), src.clone(), golite::parse_file(src).ok()?)))
        .collect();
    extract_parsed(report, &parsed)
}

/// [`extract`] over the case's parsed sources.
pub(crate) fn extract_parsed(report: &RaceReport, codebase: &[ParsedFile]) -> RaceInfo {
    let mut locations: Vec<FixLocation> = Vec::new();
    let mut push = |kind: LocationKind, function: &str, line: Option<u32>| {
        // The closure's frame names look like `parent.func1` — the
        // editable declaration is the parent function.
        let decl = function.split('.').next().unwrap_or(function).to_owned();
        let Some(file) = file_of_function(codebase, &decl) else {
            return;
        };
        if let Some(existing) = locations
            .iter_mut()
            .find(|l| l.kind == kind && l.function == decl && l.file == file)
        {
            if let Some(l) = line {
                if !existing.lines.contains(&l) {
                    existing.lines.push(l);
                }
            }
            return;
        }
        locations.push(FixLocation {
            kind,
            function: decl,
            file,
            lines: line.into_iter().collect(),
        });
    };

    // Test: a root frame named Test* anywhere in the stacks (access or
    // creation stacks).
    for acc in &report.accesses {
        for fr in acc
            .stack
            .iter()
            .chain(acc.goroutine.creation.iter().flatten())
        {
            if fr.function.starts_with("Test") {
                push(LocationKind::Test, &fr.function, None);
            }
        }
    }

    // Leaf: the innermost frames of both accesses.
    for acc in &report.accesses {
        if let Some(leaf) = acc.leaf() {
            push(LocationKind::Leaf, &leaf.function, Some(leaf.line));
        }
    }

    // LCA: deepest common function across the two goroutines' ancestry
    // chains (creation stacks outermost-first + access stack).
    if let Some(lca) = lowest_common_ancestor(report) {
        push(LocationKind::Lca, &lca, None);
    }

    // Order: TEST, LEAF, LCA (Listing 13).
    locations.sort_by_key(|l| match l.kind {
        LocationKind::Test => 0,
        LocationKind::Leaf => 1,
        LocationKind::Lca => 2,
    });

    RaceInfo {
        racy_var: report.var_name.clone(),
        bug_hash: report.bug_hash(),
        locations,
    }
}

/// Ancestry chain of one access: root-most first.
fn chain(acc: &racedet::Access) -> Vec<String> {
    let mut out = Vec::new();
    // Creation stacks: racedet keeps innermost ancestry first; walk from
    // the oldest ancestor down.
    for stack in acc.goroutine.creation.iter().rev() {
        for fr in stack.iter().rev() {
            out.push(fr.function.clone());
        }
    }
    for fr in acc.stack.iter().rev() {
        out.push(fr.function.clone());
    }
    out
}

/// Deepest common prefix element of the two chains.
fn lowest_common_ancestor(report: &RaceReport) -> Option<String> {
    let a = chain(&report.accesses[0]);
    let b = chain(&report.accesses[1]);
    let mut lca = None;
    for (x, y) in a.iter().zip(b.iter()) {
        if x == y {
            lca = Some(x.clone());
        } else {
            break;
        }
    }
    lca
}

/// Finds the file declaring `function`.
fn file_of_function(codebase: &[ParsedFile], function: &str) -> Option<String> {
    codebase
        .iter()
        .find(|(_, _, file)| file.find_func(function).is_some())
        .map(|(name, _, _)| name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use racedet::{Access, AccessKind, Frame, GoroutineInfo};

    fn frame(f: &str, line: u32) -> Frame {
        Frame::new(f, "main.go", line)
    }

    fn report() -> RaceReport {
        RaceReport {
            accesses: [
                Access {
                    kind: AccessKind::Write,
                    stack: vec![frame("Worker.func1", 12), frame("Worker", 8)],
                    goroutine: GoroutineInfo {
                        id: 1,
                        creation: vec![vec![frame("Worker", 10), frame("TestWorker", 30)]],
                    },
                },
                Access {
                    kind: AccessKind::Write,
                    stack: vec![frame("Worker", 15)],
                    goroutine: GoroutineInfo {
                        id: 0,
                        creation: vec![vec![frame("TestWorker", 30)]],
                    },
                },
            ],
            var_name: "err".into(),
            addr: 1,
        }
    }

    fn codebase() -> Vec<(String, String)> {
        vec![(
            "main.go".to_owned(),
            "package p\n\nimport \"testing\"\n\nfunc Worker() {\n}\n\nfunc TestWorker(t *testing.T) {\n\tWorker()\n}\n"
                .to_owned(),
        )]
    }

    #[test]
    fn extracts_test_leaf_and_lca_in_order() {
        let info = extract(&report(), &codebase());
        assert_eq!(info.racy_var, "err");
        let kinds: Vec<LocationKind> = info.locations.iter().map(|l| l.kind).collect();
        assert_eq!(kinds[0], LocationKind::Test);
        assert!(kinds.contains(&LocationKind::Leaf));
        assert!(kinds.contains(&LocationKind::Lca));
        // The closure frame resolves to its parent declaration.
        let leaf = info
            .locations
            .iter()
            .find(|l| l.kind == LocationKind::Leaf)
            .unwrap();
        assert_eq!(leaf.function, "Worker");
        assert!(!leaf.lines.is_empty());
    }

    #[test]
    fn lca_is_deepest_common_function() {
        let lca = lowest_common_ancestor(&report()).unwrap();
        // Both chains share the prefix TestWorker → Worker; the deepest
        // common function is Worker.
        assert_eq!(lca, "Worker");
    }

    #[test]
    fn missing_functions_are_skipped() {
        let mut r = report();
        r.accesses[0].stack[0] = frame("ghostFn", 1);
        let info = extract(&r, &codebase());
        assert!(info.locations.iter().all(|l| l.function != "ghostFn"));
    }

    #[test]
    fn bug_hash_flows_through() {
        let r = report();
        let info = extract(&r, &codebase());
        assert_eq!(info.bug_hash, r.bug_hash());
    }
}
