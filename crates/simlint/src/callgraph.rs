//! Pass 2 support for H3: bounded reachability over the indexed call graph.
//!
//! H1 proves a hotpath *fence* allocation-free line by line — but a fence
//! that calls out into an unfenced helper is only as good as that helper.
//! H3 closes the gap: starting from every call made on a fenced line, it
//! walks the indexed call graph to a bounded depth and flags the call site
//! when any reachable function body contains an allocation-prone line. The
//! diagnostic names the whole chain and the offending line, so the fix is
//! mechanical: fence the helper (putting it under H1's per-line contract),
//! remove the allocation, or waive the call site with `allow(H3)`.
//!
//! Call → definition resolution is name-based (the scanner has no types),
//! so it trades recall for precision — see [`Recv`]:
//!
//! * `self.f(…)` resolves through the **calling fn's `impl` owner** — exact;
//! * `Type::f(…)` resolves to `fn f` inside `impl Type` blocks, falling
//!   back to free fns in a module *file* named `Type` (`par::map` →
//!   `par.rs`) — exact;
//! * bare `f(…)` resolves to free functions named `f` — near-exact (free
//!   helpers have distinctive names);
//! * `recv.f(…)` on any other receiver is **not followed**: names like
//!   `push`/`len`/`map` collide with std and every container in the repo,
//!   and one wrong edge would drown every fence in false chains.
//!
//! The search is depth-first with a visited set, bounded by
//! [`MAX_CHAIN_DEPTH`] function hops, and deterministic: functions are
//! explored in index order (file, line), so the reported chain is stable
//! across runs and platforms.

use crate::index::{CallSite, FnDef, Recv, RepoIndex, SourceFile};

/// Maximum number of function hops explored from a fenced call site.
/// Depth 1 is the callee itself; the fixture contract ("a helper that
/// allocates two hops down") needs 2; one more gives headroom without
/// letting name-based resolution wander.
pub const MAX_CHAIN_DEPTH: usize = 3;

/// An allocation reachable from a fenced call site.
pub struct AllocChain {
    /// Function names from the direct callee to the allocating function.
    pub chain: Vec<String>,
    /// Repo-relative file of the allocating line.
    pub file: String,
    /// 1-indexed allocating line.
    pub line: usize,
    /// The allocation needle that matched (`.clone(`, `Vec::new`, …).
    pub needle: &'static str,
}

impl AllocChain {
    /// `a → b → c` rendering of the chain.
    pub fn render(&self) -> String {
        self.chain.join(" → ")
    }
}

/// Resolves a call to candidate definitions, in deterministic index order.
/// `caller_owner` is the `impl` type of the fn making the call (`self.f()`
/// resolution). Test-context definitions never participate (they cannot be
/// reached from a fence, which only exists in non-test code).
fn resolve<'a>(
    index: &'a RepoIndex,
    files: &[SourceFile],
    call: &CallSite,
    caller_owner: Option<&str>,
) -> Vec<&'a FnDef> {
    let mut v = match &call.recv {
        Recv::SelfDot => match caller_owner {
            Some(owner) => index.fns_of(owner, &call.callee),
            None => Vec::new(),
        },
        Recv::Bare => index.free_fns(&call.callee),
        Recv::Path(seg) => {
            let mut v = index.fns_of(seg, &call.callee);
            if v.is_empty() {
                v = index.free_fns_in_module(files, seg, &call.callee);
            }
            v
        }
        Recv::Other => Vec::new(),
    };
    v.retain(|f| !f.in_test);
    v
}

/// Searches for an allocation-prone line reachable from `call` (made by a
/// fn owned by `caller_owner`) within [`MAX_CHAIN_DEPTH`] hops. Returns the
/// first chain found in deterministic order, shortest candidates first.
pub fn find_alloc_chain(
    index: &RepoIndex,
    files: &[SourceFile],
    call: &CallSite,
    caller_owner: Option<&str>,
) -> Option<AllocChain> {
    // Iterative deepening keeps the *shortest* chain first — the most
    // actionable diagnostic — at negligible cost on a graph this small.
    for depth in 1..=MAX_CHAIN_DEPTH {
        let mut visited: Vec<(usize, usize)> = Vec::new(); // (file, line) of fns
        if let Some(found) = search(index, files, call, caller_owner, depth, &mut visited) {
            return Some(found);
        }
    }
    None
}

fn search(
    index: &RepoIndex,
    files: &[SourceFile],
    call: &CallSite,
    caller_owner: Option<&str>,
    budget: usize,
    visited: &mut Vec<(usize, usize)>,
) -> Option<AllocChain> {
    if budget == 0 {
        return None;
    }
    for def in resolve(index, files, call, caller_owner) {
        let key = (def.file, def.line);
        if visited.contains(&key) {
            continue;
        }
        visited.push(key);
        if let Some(alloc) = def.allocs.first() {
            return Some(AllocChain {
                chain: vec![def.name.clone()],
                file: files[def.file].rel.clone(),
                line: alloc.line + 1,
                needle: alloc.needle,
            });
        }
        for next in &def.calls {
            if let Some(mut found) = search(
                index,
                files,
                next,
                def.owner.as_deref(),
                budget - 1,
                visited,
            ) {
                found.chain.insert(0, def.name.clone());
                return Some(found);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(src: &str) -> Vec<SourceFile> {
        vec![SourceFile::new("crates/x/src/lib.rs", src, false)]
    }

    fn bare(callee: &str) -> CallSite {
        CallSite {
            callee: callee.to_owned(),
            recv: Recv::Bare,
            line: 0,
        }
    }

    fn path(seg: &str, callee: &str) -> CallSite {
        CallSite {
            callee: callee.to_owned(),
            recv: Recv::Path(seg.to_owned()),
            line: 0,
        }
    }

    #[test]
    fn finds_two_hop_chain() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() { let v = Vec::new(); }\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        let chain = find_alloc_chain(&idx, &fs, &bare("a"), None).expect("reachable");
        assert_eq!(chain.render(), "a → b → c");
        assert_eq!(chain.line, 3);
        assert_eq!(chain.needle, "Vec::new");
    }

    #[test]
    fn respects_depth_bound() {
        let src =
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { d(); }\nfn d() { let v = Vec::new(); }\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        // d is 4 hops from the call *site* of a — but find_alloc_chain
        // starts at the callee, so `a` itself is hop 1: a→b→c exhausts the
        // budget before d's allocation.
        assert!(find_alloc_chain(&idx, &fs, &bare("a"), None).is_none());
        assert!(find_alloc_chain(&idx, &fs, &bare("b"), None).is_some());
    }

    #[test]
    fn cycles_terminate() {
        let src = "fn a() { b(); }\nfn b() { a(); }\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        assert!(find_alloc_chain(&idx, &fs, &bare("a"), None).is_none());
    }

    #[test]
    fn qualified_calls_resolve_to_impl_only() {
        let src = "impl Foo {\n    fn make() { let v = Vec::new(); }\n}\nimpl Bar {\n    fn make() {}\n}\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        assert!(find_alloc_chain(&idx, &fs, &path("Bar", "make"), None).is_none());
        assert!(find_alloc_chain(&idx, &fs, &path("Foo", "make"), None).is_some());
    }

    #[test]
    fn self_calls_resolve_through_caller_owner() {
        let src = "impl Foo {\n    fn helper(&self) { let v = Vec::new(); }\n}\nimpl Bar {\n    fn helper(&self) {}\n}\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        let call = CallSite {
            callee: "helper".to_owned(),
            recv: Recv::SelfDot,
            line: 0,
        };
        assert!(find_alloc_chain(&idx, &fs, &call, Some("Bar")).is_none());
        assert!(find_alloc_chain(&idx, &fs, &call, Some("Foo")).is_some());
        assert!(find_alloc_chain(&idx, &fs, &call, None).is_none());
    }

    #[test]
    fn other_receivers_are_never_followed() {
        let src = "fn push() { let v = Vec::new(); }\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        let call = CallSite {
            callee: "push".to_owned(),
            recv: Recv::Other,
            line: 0,
        };
        assert!(find_alloc_chain(&idx, &fs, &call, None).is_none());
        assert!(find_alloc_chain(&idx, &fs, &bare("push"), None).is_some());
    }

    #[test]
    fn module_path_calls_resolve_to_module_file() {
        let a = SourceFile::new(
            "crates/core/src/par.rs",
            "pub fn map() { let v: Vec<u32> = it.collect(); }\n",
            false,
        );
        let b = SourceFile::new("crates/core/src/other.rs", "pub fn map() {}\n", false);
        let fs = vec![a, b];
        let idx = RepoIndex::build(&fs);
        let chain = find_alloc_chain(&idx, &fs, &path("par", "map"), None).expect("resolved");
        assert_eq!(chain.file, "crates/core/src/par.rs");
        assert!(find_alloc_chain(&idx, &fs, &path("other", "map"), None).is_none());
    }

    #[test]
    fn test_context_definitions_never_participate() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() { let v = Vec::new(); }\n}\n";
        let fs = files(src);
        let idx = RepoIndex::build(&fs);
        assert!(find_alloc_chain(&idx, &fs, &bare("helper"), None).is_none());
    }
}
