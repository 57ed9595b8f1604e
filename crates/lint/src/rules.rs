//! The repo's determinism and numeric-safety invariants, as machine
//! checks.
//!
//! Every rule is a [`Rule`] implementation with a stable id, a severity
//! and findings over the whole [`Workspace`]; `all_rules()` is the one
//! registry the binary and the fixture self-tests both run: the eight
//! rules here read one file's token stream at a time, the four in
//! [`crate::graph_rules`] also walk the symbol graph. Patterns are
//! token sequences ([`Patterns`]), never substrings of source text. The
//! escape hatch for an audited exception is a `// lint: allow(<name>)`
//! comment on (or directly above) the flagged line — see DESIGN.md's
//! "Static analysis & checked invariants" section for the rule table
//! and each rule's rationale.

use crate::graph::Workspace;
use crate::graph_rules::{FmaDeterminism, LockAcrossCall, NondeterminismTaint, UnsafeAudit};
use crate::source::SourceFile;
use crate::tokens::{Patterns, Token, TokenKind};
use std::fmt;
use std::path::PathBuf;

/// How a finding gates CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint gate.
    Deny,
    /// Reported but never fails the gate.
    Warn,
}

/// One rule violation at a specific source line.
#[derive(Debug)]
pub struct Finding {
    /// The violated rule's id.
    pub rule: &'static str,
    /// Gate behaviour.
    pub severity: Severity,
    /// Repo-relative file.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and how to fix (or waive) it.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl Finding {
    /// A finding of `rule` at 0-based `line` of `file`, excerpting that
    /// line.
    pub fn at(rule: &dyn Rule, file: &SourceFile, line: usize, message: String) -> Finding {
        Finding {
            rule: rule.id(),
            severity: rule.severity(),
            path: file.path.clone(),
            line: line + 1,
            message,
            excerpt: file.lines[line].trim().to_string(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message,
            self.excerpt
        )
    }
}

/// A single invariant check over the workspace.
pub trait Rule {
    /// Stable identifier (used in reports and the DESIGN.md table).
    fn id(&self) -> &'static str;
    /// Gate behaviour of this rule's findings.
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    /// One-line rationale.
    fn description(&self) -> &'static str;
    /// Append findings for the workspace to `out`.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// The full registry, in id order: the per-file rules, then the graph
/// rules.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HOST_CLOCK),
        Box::new(UNORDERED_MAP),
        Box::new(UnwrapAudit),
        Box::new(FloatGuard),
        Box::new(THREAD_DISCIPLINE),
        Box::new(ENTROPY),
        Box::new(BoundedRetry),
        Box::new(NoPerPacketAlloc),
        Box::new(LockAcrossCall),
        Box::new(FmaDeterminism),
        Box::new(UnsafeAudit),
        Box::new(NondeterminismTaint),
    ]
}

/// Host wall-clock reads: the `host-clock` rule's patterns and the
/// taint rule's clock sources.
pub(crate) const CLOCK_READS: &[&str] = &[
    "std::time::Instant",
    "std::time::SystemTime",
    "SystemTime::now",
    "Instant::now(",
];

/// Thread creation by path: the taint rule's thread sources;
/// `thread-discipline` also flags any `.spawn(` call.
pub(crate) const THREAD_SPAWNS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// Ambient entropy: the taint rule's entropy sources; `entropy` also
/// flags `rand::random`.
pub(crate) const AMBIENT_ENTROPY: &[&str] =
    &["thread_rng", "from_entropy", "RandomState", "getrandom"];

/// A rule that flags every line matching one of its patterns, in the
/// files its scope admits, unless the line carries its waiver.
pub struct LineRule {
    pub id: &'static str,
    pub description: &'static str,
    /// The files the rule reads.
    pub scope: fn(&SourceFile) -> bool,
    pub patterns: &'static [&'static [&'static str]],
    /// Also flag lines in test regions.
    pub include_tests: bool,
    pub waiver: &'static str,
    pub message: &'static str,
}

impl Rule for LineRule {
    fn id(&self) -> &'static str {
        self.id
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let patterns = Patterns::new(self.patterns);
        for file in ws.files.iter().filter(|f| (self.scope)(f)) {
            for line in 0..file.lines.len() {
                if (self.include_tests || !file.is_test[line])
                    && patterns.any_in(file.tokens_on(line))
                    && !file.allowed(line, &[self.waiver])
                {
                    out.push(Finding::at(self, file, line, self.message.to_string()));
                }
            }
        }
    }
}

/// `host-clock`: wall-clock reads (`std::time::Instant`, `SystemTime`)
/// make runs depend on the host instead of `(configuration, seed)`.
/// The single audited access point is `netsim::host_clock`, which
/// carries the `lint: allow(host_clock)` waiver.
pub const HOST_CLOCK: LineRule = LineRule {
    id: "host-clock",
    description: "wall-clock reads outside the audited netsim::host_clock module",
    scope: |_| true,
    patterns: &[CLOCK_READS],
    include_tests: true, // host clocks are nondeterministic in tests too
    waiver: "host_clock",
    message: "host wall-clock read; route it through netsim::host_clock (the one \
              audited site) or waive with `// lint: allow(host_clock)`",
};

/// Unordered std collections by type name; the taint rule's
/// unordered-iteration source needs one of them in the fn body.
pub(crate) const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// `unordered-map`: `HashMap`/`HashSet` iteration order is unspecified;
/// in the crates that serialize results or merge worker output
/// (`netsim`, `bench`) a stray iteration silently breaks byte-identical
/// reports. Require `BTreeMap`/`BTreeSet` (or an audited waiver).
pub const UNORDERED_MAP: LineRule = LineRule {
    id: "unordered-map",
    description: "HashMap/HashSet in netsim or bench; use BTreeMap/BTreeSet",
    scope: |f| f.krate == "netsim" || f.krate == "bench",
    patterns: &[UNORDERED_TYPES, &["hash_map::", "hash_set::"]],
    include_tests: true, // test assertions over unordered iteration flake too
    waiver: "unordered_map",
    message: "unordered collection in an output-producing crate; use \
              BTreeMap/BTreeSet so iteration order is deterministic, or waive \
              an iteration-free use with `// lint: allow(unordered_map)`",
};

/// `unwrap-audit`: every crate root must carry
/// `#![cfg_attr(not(test), deny(clippy::unwrap_used))]`, and because
/// that attribute does not reach `src/bin/*` targets (separate
/// compilation units), bare `.unwrap()` and `panic!`-family macros in
/// non-test code are flagged here directly. Audited panic sites use
/// `expect` with an invariant message instead.
pub struct UnwrapAudit;

/// `unwrap-audit`'s bare-unwrap arm.
const UNWRAP_LINES: LineRule = LineRule {
    id: "unwrap-audit",
    description: "bare unwrap in non-test code",
    scope: |_| true,
    patterns: &[&[".unwrap()"]],
    include_tests: false,
    waiver: "unwrap",
    message: "bare unwrap in non-test code; handle the branch or use `expect` \
              with an invariant message",
};

/// `unwrap-audit`'s panic-family arm.
const PANIC_LINES: LineRule = LineRule {
    id: "unwrap-audit",
    description: "panic-family macro in non-test code",
    scope: |_| true,
    patterns: &[&["panic!(", "unreachable!(", "todo!(", "unimplemented!("]],
    include_tests: false,
    waiver: "panic",
    message: "panic-family macro in non-test code; return an error or waive an \
              audited invariant with `// lint: allow(panic)`",
};

impl Rule for UnwrapAudit {
    fn id(&self) -> &'static str {
        "unwrap-audit"
    }
    fn description(&self) -> &'static str {
        "unwrap/panic in non-test code, or a crate root missing the deny attribute"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let deny = Patterns::new(&[&["deny(clippy::unwrap_used)"]]);
        for file in &ws.files {
            if file.is_lib_root() && !deny.any_in(&file.tokens) {
                out.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    path: file.path.clone(),
                    line: 1,
                    message: "crate root lacks #![cfg_attr(not(test), \
                              deny(clippy::unwrap_used))]"
                        .to_string(),
                    excerpt: file.lines.first().cloned().unwrap_or_default(),
                });
            }
        }
        UNWRAP_LINES.check(ws, out);
        PANIC_LINES.check(ws, out);
    }
}

/// `float-guard`: in the files that feed candidate arbitration (the
/// utility function and its consumers), unguarded `powf`/`ln`/division
/// is exactly how the −∞-utility bug of PR 3 entered. Any such
/// operation must sit in a function that also carries finite-guard
/// evidence (a finiteness check, an emptiness/zero check, or clamping).
pub struct FloatGuard;

/// Files in the utility-adjacent blast radius.
const FLOAT_GUARD_SCOPE: &[&str] = &[
    "crates/types/src/utility.rs",
    "crates/types/src/stats.rs",
    "crates/core/src/accounting.rs",
    "crates/core/src/cycle.rs",
    "crates/core/src/libra.rs",
    "crates/core/src/equilibrium.rs",
];

/// Evidence that the enclosing function thought about degenerate
/// inputs: finiteness checks, zero/emptiness guards, clamps.
const GUARD_EVIDENCE: &[&str] = &[
    "is_finite",
    "is_nan",
    "is_empty",
    "clamp",
    "assert",
    "== 0",
    "!= 0",
    "<= 0",
    "> 0",
    "< 2",
    ".max",
    ".min",
    "saturating",
];

const TRANSCENDENTAL: &[&str] = &[".powf(", ".ln(", ".log2(", ".log10(", ".exp(", ".sqrt("];

impl FloatGuard {
    /// A `/` division — spaced on both sides, as rustfmt writes one —
    /// whose divisor is not a numeric literal (literal divisors cannot
    /// be zero by accident). `tokens` are one line's.
    fn risky_division(tokens: &[Token]) -> bool {
        tokens.windows(2).any(|w| {
            w[0].is_punct('/')
                && w[0].spaced
                && w[1].spaced
                && !(w[1].kind == TokenKind::Num || w[1].is_punct('.'))
        })
    }
}

impl Rule for FloatGuard {
    fn id(&self) -> &'static str {
        "float-guard"
    }
    fn description(&self) -> &'static str {
        "unguarded float math in utility-adjacent files"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let transcendental = Patterns::new(&[TRANSCENDENTAL]);
        let evidence = Patterns::new(&[GUARD_EVIDENCE]);
        for file in &ws.files {
            if !FLOAT_GUARD_SCOPE.iter().any(|s| file.path.ends_with(s)) {
                continue;
            }
            for line in 0..file.lines.len() {
                let tokens = file.tokens_on(line);
                let hit = transcendental.any_in(tokens) || Self::risky_division(tokens);
                if file.is_test[line] || !hit || file.allowed(line, &["unchecked_float"]) {
                    continue;
                }
                // Consts and statics have no enclosing fn: they need a
                // line waiver.
                let guarded = file.enclosing_fn(line).is_some_and(|f| {
                    let end = f.body.map_or(f.sig_line, |(_, end)| end);
                    evidence.any_in(file.tokens_in(f.sig_line, end))
                });
                if guarded {
                    continue;
                }
                out.push(Finding::at(
                    self,
                    file,
                    line,
                    "float operation with no finite-guard evidence \
                     (is_finite/is_nan/zero-or-empty check/clamp) in the \
                     enclosing function; add a guard or waive with \
                     `// lint: allow(unchecked_float)`"
                        .to_string(),
                ));
            }
        }
    }
}

/// The one file allowed to create threads.
const SWEEP_RUNNER: &str = "bench/src/sweep.rs";

/// `thread-discipline`: all parallelism lives in `bench/src/sweep.rs`
/// (the deterministic index-ordered runner). Threads anywhere else are
/// an ordering hazard for merged output.
pub const THREAD_DISCIPLINE: LineRule = LineRule {
    id: "thread-discipline",
    description: "thread creation outside bench/src/sweep.rs",
    scope: |f| !f.path.ends_with(SWEEP_RUNNER),
    patterns: &[THREAD_SPAWNS, &[".spawn("]],
    include_tests: false, // tests may exercise thread-safety directly
    waiver: "threads",
    message: "thread creation outside the deterministic sweep runner \
              (bench/src/sweep.rs); route the work through run_figure/\
              run_sweep_supervised_with or waive with `// lint: allow(threads)`",
};

/// `entropy`: ambient randomness (`thread_rng`, `RandomState`,
/// `getrandom`) breaks the `(configuration, seed)` purity of every run.
/// All randomness must come from the forkable seeded `DetRng`.
pub const ENTROPY: LineRule = LineRule {
    id: "entropy",
    description: "ambient (non-seeded) randomness",
    scope: |_| true,
    patterns: &[AMBIENT_ENTROPY, &["rand::random"]],
    include_tests: true,
    waiver: "entropy",
    message: "ambient randomness; derive a stream from the seeded DetRng \
              (fork a label) so the run stays a pure function of its seed",
};

/// `bounded-retry`: an unbounded loop (`loop { … }` / `while true`)
/// whose body retries work — backoff sleeps, retry counters — can spin
/// forever the moment the retried condition stops clearing; that is
/// exactly the livelock the sweep watchdogs exist to kill. Retry loops
/// must iterate over an explicit attempt range
/// (`for attempt in 1..=max_attempts`) or carry bound evidence in the
/// loop body (an attempt/limit comparison, a remaining-budget or
/// deadline check). Audited exceptions waive with
/// `// lint: allow(bounded-retry)` on or above the loop header.
pub struct BoundedRetry;

/// Body patterns that mark a loop as a retry/backoff loop.
const RETRY_IDIOMS: &[&str] = &["retry", "retries", "backoff", "try_again", "sleep("];

/// Evidence that the loop bounds its attempts (or its wall time).
const RETRY_BOUND_EVIDENCE: &[&str] = &[
    "max_attempts",
    "max_retries",
    "max_tries",
    "attempt >",
    "attempts >",
    "attempt <",
    "attempts <",
    "attempt ==",
    "attempts ==",
    "remaining",
    "budget",
    "deadline",
];

impl Rule for BoundedRetry {
    fn id(&self) -> &'static str {
        "bounded-retry"
    }
    fn description(&self) -> &'static str {
        "unbounded retry/backoff loop without an explicit attempt bound"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let idioms = Patterns::new(&[RETRY_IDIOMS]);
        let bound = Patterns::new(&[RETRY_BOUND_EVIDENCE]);
        for file in &ws.files {
            for &(start, end) in &file.items.loops {
                let body = file.tokens_in(start, end);
                if file.is_test[start]
                    || !idioms.any_in(body)
                    || bound.any_in(body)
                    || file.allowed(start, &["bounded-retry", "bounded_retry"])
                {
                    continue;
                }
                out.push(Finding::at(
                    self,
                    file,
                    start,
                    "unbounded retry loop; iterate an explicit attempt range \
                     (`for attempt in 1..=max_attempts`), compare a counter \
                     against a limit inside the body, or waive an audited \
                     exception with `// lint: allow(bounded-retry)`"
                        .to_string(),
                ));
            }
        }
    }
}

/// `no-per-packet-alloc`: the simulator's per-packet and per-ACK
/// functions run millions of times per simulated minute; a heap
/// allocation there (a `Box`, a fresh `Vec`, a formatted `String`) is
/// the difference between the slab-pooled engine and the one it
/// replaced. Inside the named hot functions in `netsim`, and on the
/// per-MI decision paths in `core` and `learned`, allocation
/// constructors are denied;
/// buffers must be preallocated scratch space owned by the caller (see
/// `FlowSender::try_emit`), slab slots from `PacketPool`, or fixed
/// arrays (the cycle's candidate slots). Audited cold branches inside a
/// hot function waive with `// lint: allow(no-per-packet-alloc)`.
pub struct NoPerPacketAlloc;

/// The per-packet / per-ACK hot set: every function the event loop
/// enters for each packet emission (`pump_flow`), queue transit (with
/// the queue's control-law hooks, PIE's `update_drop_prob` and CoDel's
/// `drops_head`), service start or completion, ACK delivery or RTO check, plus the simulator's
/// `schedule` and `dispatch`, which every event passes through (with the
/// wheel's lane admission test), and the fault engine's `ack_fate`,
/// which every ACK passes through while a link plan is attached. The
/// per-decision set follows: every monitor-interval tick passes through
/// `dispatch_mi_ticks`, the sender's three `mi_tick_*` phases and
/// `close_mi`. Every ACK also feeds the report series through
/// `BinSeries::count_ack` and, one in twenty, `RttSeries::record_rtt`.
/// Names, not paths, so a hot function moving between files stays
/// covered.
const HOT_FNS: &[&str] = &[
    "schedule",
    "dispatch",
    "emit_packet",
    "on_ack_packet",
    "admit_packet",
    "on_service_done",
    "ack_fate",
    "try_emit",
    "enqueue_with_ecn",
    "dequeue",
    "update_drop_prob",
    "drops_head",
    "detect_reorder_losses",
    "push",
    "push_lane",
    "lane_accepts",
    "pop",
    "pump_flow",
    "start_service",
    "on_rto_check",
    "dispatch_mi_ticks",
    "mi_tick_submit",
    "mi_tick_resolve",
    "mi_tick_finish",
    "close_mi",
    "count_ack",
    "record_rtt",
];

/// `core`'s per-decision set: every MI close enters Libra through
/// `mi_submit` (and `mi_resolve` when the RL arm acted), which feed the
/// cycle's one entry point, `advance`; it builds the candidate slots in
/// `enter_eval` and the cycle's record in `decide`.
const CORE_HOT_FNS: &[&str] = &[
    "mi_submit",
    "mi_resolve",
    "on_mi",
    "advance",
    "enter_eval",
    "decide",
];

/// `learned`'s per-decision set: a learned arm's MI close runs
/// `mi_submit` (the state vector, through `push_step` and
/// `write_history`) and `mi_resolve` → `resolve` (the action, through
/// the degradation ladder), or both at once through `on_mi` →
/// `SelfServe::decide`; Libra reports each cycle to the ladder
/// (`on_cycle`) and ticks its bench (`tick_bench`). A 1 000-flow learned
/// fleet runs this path a thousand times per MI.
const LEARNED_HOT_FNS: &[&str] = &[
    "on_mi",
    "mi_submit",
    "mi_resolve",
    "resolve",
    "decide",
    "push_step",
    "write_history",
    "on_cycle",
    "tick_bench",
];

/// Heap-allocation constructors. `Vec::with_capacity` is deliberately
/// absent: it only appears in setup paths, and flagging it would push
/// people toward `Vec::new` + growth, the worse idiom.
const ALLOC_PATTERNS: &[&str] = &[
    "Box::new(",
    "Vec::new(",
    "vec![",
    "VecDeque::new(",
    "String::new(",
    "format!(",
    ".to_string()",
    ".to_vec()",
];

impl Rule for NoPerPacketAlloc {
    fn id(&self) -> &'static str {
        "no-per-packet-alloc"
    }
    fn description(&self) -> &'static str {
        "heap allocation inside a per-packet or per-MI hot function (netsim, core, learned)"
    }
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let alloc = Patterns::new(&[ALLOC_PATTERNS]);
        for file in &ws.files {
            let Some(hot_fns) = hot_fns(&file.krate) else {
                continue;
            };
            for line in 0..file.lines.len() {
                if file.is_test[line] || !alloc.any_in(file.tokens_on(line)) {
                    continue;
                }
                let Some(name) = file.enclosing_fn(line).map(|f| f.name.as_str()) else {
                    continue;
                };
                if !hot_fns.contains(&name)
                    || file.allowed(line, &["no-per-packet-alloc", "no_per_packet_alloc"])
                {
                    continue;
                }
                out.push(Finding::at(
                    self,
                    file,
                    line,
                    format!(
                        "heap allocation inside hot function `{name}`; use a caller-owned \
                         scratch buffer, a PacketPool slot or a fixed array, or waive \
                         an audited cold branch with `// lint: allow(no-per-packet-alloc)`"
                    ),
                ));
            }
        }
    }
}

/// The hot set of `krate`, if it has one.
fn hot_fns(krate: &str) -> Option<&'static [&'static str]> {
    match krate {
        "netsim" => Some(HOT_FNS),
        "core" => Some(CORE_HOT_FNS),
        "learned" => Some(LEARNED_HOT_FNS),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn findings(path: &str, text: &str) -> Vec<Finding> {
        crate::lint_file(SourceFile::from_source(Path::new(path), text))
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = all_rules().iter().map(|r| r.id()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 12);
    }

    #[test]
    fn per_packet_alloc_scoped_to_hot_fns_in_netsim() {
        // Allocation inside a hot function in netsim: flagged.
        let hot = findings(
            "crates/netsim/src/demo.rs",
            "fn try_emit(&mut self) {\n    let out = Vec::new();\n    drop(out);\n}\n",
        );
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert_eq!(hot[0].rule, "no-per-packet-alloc");
        assert_eq!(hot[0].line, 2);
        // Same body in a cold function: clean.
        let cold = findings(
            "crates/netsim/src/demo.rs",
            "fn finalize(&mut self) {\n    let out = Vec::new();\n    drop(out);\n}\n",
        );
        assert!(cold.is_empty(), "{cold:?}");
        // Same hot function outside netsim: clean.
        let other_crate = findings(
            "crates/classic/src/demo.rs",
            "fn try_emit(&mut self) {\n    let out = Vec::new();\n    drop(out);\n}\n",
        );
        assert!(other_crate.is_empty(), "{other_crate:?}");
        // Every listed name is hot: the queue's law hooks, the
        // per-decision functions and the report series' per-ACK entry
        // points among them.
        for name in HOT_FNS {
            let hot = findings(
                "crates/netsim/src/demo.rs",
                &format!("fn {name}(&mut self) {{\n    let state = vec![0.0; 8];\n}}\n"),
            );
            assert_eq!(hot.len(), 1, "{name}: {hot:?}");
        }
        for name in ["count_ack", "record_rtt"] {
            assert!(HOT_FNS.contains(&name), "{name}");
        }
        // Core's per-MI cycle path and learned's per-decision path are
        // hot too; netsim's names are not hot there, nor are theirs in
        // netsim, nor the learned arm's in a classic CCA.
        for (path, names) in [
            ("crates/core/src/demo.rs", CORE_HOT_FNS),
            ("crates/learned/src/demo.rs", LEARNED_HOT_FNS),
        ] {
            for name in names {
                let hot = findings(
                    path,
                    &format!("fn {name}(&mut self) {{\n    let cands = vec![0.0; 2];\n}}\n"),
                );
                assert_eq!(hot.len(), 1, "{path} {name}: {hot:?}");
                assert_eq!(hot[0].rule, "no-per-packet-alloc");
            }
        }
        for name in [
            "on_mi",
            "mi_submit",
            "mi_resolve",
            "resolve",
            "decide",
            "push_step",
            "write_history",
            "on_cycle",
            "tick_bench",
        ] {
            assert!(LEARNED_HOT_FNS.contains(&name), "{name}");
        }
        for (path, name) in [
            ("crates/core/src/demo.rs", "try_emit"),
            ("crates/netsim/src/demo.rs", "enter_eval"),
            ("crates/learned/src/demo.rs", "try_emit"),
            ("crates/netsim/src/demo.rs", "tick_bench"),
            ("crates/classic/src/demo.rs", "mi_submit"),
        ] {
            let cold = findings(
                path,
                &format!("fn {name}(&mut self) {{\n    let cands = vec![0.0; 2];\n}}\n"),
            );
            assert!(cold.is_empty(), "{path} {name}: {cold:?}");
        }
        // Waived audited cold branch inside a hot function: clean.
        let waived = findings(
            "crates/netsim/src/demo.rs",
            "fn dequeue(&mut self) {\n    // lint: allow(no-per-packet-alloc)\n    let out = Vec::new();\n    drop(out);\n}\n",
        );
        assert!(waived.is_empty(), "{waived:?}");
    }

    #[test]
    fn annotated_host_clock_passes() {
        let hits = findings(
            "crates/netsim/src/demo.rs",
            "// lint: allow(host_clock)\nlet t = std::time::Instant::now();\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unordered_map_scoped_to_netsim_and_bench() {
        let in_scope = findings(
            "crates/bench/src/demo.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(in_scope.len(), 1);
        assert_eq!(in_scope[0].rule, "unordered-map");
        let out_of_scope = findings(
            "crates/classic/src/demo.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(out_of_scope.is_empty());
    }

    #[test]
    fn test_code_unwrap_is_exempt() {
        let hits = findings(
            "crates/bench/src/bin/demo.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x().unwrap(); }\n}\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn bounded_retry_needs_idiom_and_missing_bound() {
        // Unbounded loop with a backoff idiom and no bound: flagged.
        let hits = findings(
            "crates/bench/src/demo.rs",
            "fn f() {\n    loop {\n        backoff_sleep();\n    }\n}\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "bounded-retry");
        assert_eq!(hits[0].line, 2);
        // Same loop with a counter-vs-limit comparison: clean.
        let bounded = findings(
            "crates/bench/src/demo.rs",
            "fn f(max_attempts: u32) {\n    let mut a = 0;\n    loop {\n        a += 1;\n        if a >= max_attempts { break; }\n        backoff_sleep();\n    }\n}\n",
        );
        assert!(bounded.is_empty(), "{bounded:?}");
        // No retry idiom in the body: not a retry loop, clean.
        let plain = findings(
            "crates/bench/src/demo.rs",
            "fn f() {\n    loop {\n        if done() { break; }\n        step();\n    }\n}\n",
        );
        assert!(plain.is_empty(), "{plain:?}");
        // Waiver on the header line above: clean.
        let waived = findings(
            "crates/bench/src/demo.rs",
            "fn f() {\n    // lint: allow(bounded-retry)\n    loop {\n        backoff_sleep();\n    }\n}\n",
        );
        assert!(waived.is_empty(), "{waived:?}");
    }

    #[test]
    fn division_by_literal_is_not_risky() {
        let risky = |src: &str| FloatGuard::risky_division(&crate::tokens::lex(src).tokens);
        assert!(!risky("let x = y / 2.0;"));
        assert!(!risky("let x = y / .5;"));
        assert!(risky("let x = y / n;"));
        assert!(!risky("let x = y /= 2;"));
        assert!(!risky("let x = y/n; // a / b"));
    }

    /// The scope lists name code by name or path, so a rename silently
    /// unprotects it: every hot-set name must be a non-test fn in its
    /// crate, and every scoped path a linted file.
    #[test]
    fn scope_lists_resolve_in_the_tree() {
        let root = crate::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above crates/lint");
        let ws = crate::load_workspace(&root).expect("workspace loads");
        for krate in ["netsim", "core", "learned"] {
            for name in hot_fns(krate).expect("crate has a hot set") {
                let defined = ws.files.iter().filter(|f| f.krate == krate).any(|f| {
                    f.items
                        .fns
                        .iter()
                        .any(|g| g.name == *name && g.body.is_some() && !f.is_test[g.sig_line])
                });
                assert!(
                    defined,
                    "hot fn `{name}` is no non-test fn in crates/{krate}"
                );
            }
        }
        let paths: Vec<&Path> = ws.files.iter().map(|f| f.path.as_path()).collect();
        for scoped in FLOAT_GUARD_SCOPE {
            assert!(paths.contains(&Path::new(scoped)), "{scoped} is not linted");
        }
        for suffix in [SWEEP_RUNNER, "netsim/src/host_clock.rs"] {
            assert!(
                paths.iter().any(|p| p.ends_with(suffix)),
                "{suffix} is not linted"
            );
        }
    }
}
