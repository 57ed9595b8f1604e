//! The repo's determinism and numeric-safety invariants, as machine
//! checks.
//!
//! Every rule is a [`Rule`] implementation with a stable id, a severity
//! and per-file findings; `all_rules()` is the registry the binary and
//! the fixture self-tests both run. The escape hatch for an audited
//! exception is a `// lint: allow(<name>)` comment on (or directly
//! above) the flagged line — see DESIGN.md's "Static analysis & checked
//! invariants" section for the rule table and each rule's rationale.

use crate::source::{find_fn_token, SourceFile};
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

/// A single invariant check over one source file.
pub trait Rule {
    /// Stable identifier (used in reports and the DESIGN.md table).
    fn id(&self) -> &'static str;
    /// Gate behaviour of this rule's findings.
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    /// One-line rationale.
    fn description(&self) -> &'static str;
    /// Append findings for `file` to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The full registry, in id order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HostClock),
        Box::new(UnorderedMap),
        Box::new(UnwrapAudit),
        Box::new(FloatGuard),
        Box::new(ThreadDiscipline),
        Box::new(Entropy),
        Box::new(BoundedRetry),
        Box::new(NoPerPacketAlloc),
    ]
}

/// Shared helper: flag every code line containing any of `patterns`,
/// honouring the test mask and the `allow_name` annotation.
#[allow(clippy::too_many_arguments)]
fn flag_patterns(
    rule: &dyn Rule,
    file: &SourceFile,
    patterns: &[&str],
    include_tests: bool,
    allow_name: &str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    for (idx, code) in file.code.iter().enumerate() {
        if !include_tests && file.is_test[idx] {
            continue;
        }
        if !patterns.iter().any(|p| code.contains(p)) {
            continue;
        }
        if file.allowed(idx, allow_name) {
            continue;
        }
        out.push(Finding {
            rule: rule.id(),
            severity: rule.severity(),
            path: file.path.clone(),
            line: idx + 1,
            message: message.to_string(),
            excerpt: file.lines[idx].trim().to_string(),
        });
    }
}

/// `host-clock`: wall-clock reads (`std::time::Instant`, `SystemTime`)
/// make runs depend on the host instead of `(configuration, seed)`.
/// The single audited access point is `netsim::host_clock`, which
/// carries the `lint: allow(host_clock)` waiver.
pub struct HostClock;

impl Rule for HostClock {
    fn id(&self) -> &'static str {
        "host-clock"
    }
    fn description(&self) -> &'static str {
        "wall-clock reads outside the audited netsim::host_clock module"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        flag_patterns(
            self,
            file,
            &[
                "std::time::Instant",
                "std::time::SystemTime",
                "SystemTime::now",
                "Instant::now(",
            ],
            true, // host clocks are nondeterministic in tests too
            "host_clock",
            "host wall-clock read; route it through netsim::host_clock (the one \
             audited site) or waive with `// lint: allow(host_clock)`",
            out,
        );
    }
}

/// `unordered-map`: `HashMap`/`HashSet` iteration order is unspecified;
/// in the crates that serialize results or merge worker output
/// (`netsim`, `bench`) a stray iteration silently breaks byte-identical
/// reports. Require `BTreeMap`/`BTreeSet` (or an audited waiver).
pub struct UnorderedMap;

impl Rule for UnorderedMap {
    fn id(&self) -> &'static str {
        "unordered-map"
    }
    fn description(&self) -> &'static str {
        "HashMap/HashSet in netsim or bench; use BTreeMap/BTreeSet"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.krate != "netsim" && file.krate != "bench" {
            return;
        }
        flag_patterns(
            self,
            file,
            &["HashMap", "HashSet", "hash_map::", "hash_set::"],
            true, // test assertions over unordered iteration flake too
            "unordered_map",
            "unordered collection in an output-producing crate; use \
             BTreeMap/BTreeSet so iteration order is deterministic, or waive \
             an iteration-free use with `// lint: allow(unordered_map)`",
            out,
        );
    }
}

/// `unwrap-audit`: every crate root must carry
/// `#![cfg_attr(not(test), deny(clippy::unwrap_used))]`, and because
/// that attribute does not reach `src/bin/*` targets (separate
/// compilation units), bare `.unwrap()` and `panic!`-family macros in
/// non-test code are flagged here directly. Audited panic sites use
/// `expect` with an invariant message instead.
pub struct UnwrapAudit;

impl Rule for UnwrapAudit {
    fn id(&self) -> &'static str {
        "unwrap-audit"
    }
    fn description(&self) -> &'static str {
        "unwrap/panic in non-test code, or a crate root missing the deny attribute"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.is_lib_root()
            && !file
                .code
                .iter()
                .any(|l| l.contains("deny(clippy::unwrap_used)"))
        {
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
        flag_patterns(
            self,
            file,
            &[".unwrap()"],
            false,
            "unwrap",
            "bare unwrap in non-test code; handle the branch or use `expect` \
             with an invariant message",
            out,
        );
        flag_patterns(
            self,
            file,
            &["panic!(", "unreachable!(", "todo!(", "unimplemented!("],
            false,
            "panic",
            "panic-family macro in non-test code; return an error or waive an \
             audited invariant with `// lint: allow(panic)`",
            out,
        );
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
    fn fn_has_guard(&self, file: &SourceFile, line: usize) -> bool {
        let Some((start, end)) = file.enclosing_fn(line) else {
            return false; // consts/statics: demand a line waiver
        };
        file.code[start..=end]
            .iter()
            .any(|l| GUARD_EVIDENCE.iter().any(|g| l.contains(g)))
    }

    /// A `/` division whose divisor is not a numeric literal (literal
    /// divisors cannot be zero by accident).
    fn risky_division(code: &str) -> bool {
        let mut from = 0;
        while let Some(rel) = code[from..].find(" / ") {
            let after = &code[from + rel + 3..];
            let divisor = after.trim_start();
            let literal = divisor
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '.');
            if !literal {
                return true;
            }
            from += rel + 3;
        }
        false
    }
}

impl Rule for FloatGuard {
    fn id(&self) -> &'static str {
        "float-guard"
    }
    fn description(&self) -> &'static str {
        "unguarded float math in utility-adjacent files"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let path = file.path.to_string_lossy();
        if !FLOAT_GUARD_SCOPE.iter().any(|s| path.ends_with(s)) {
            return;
        }
        for (idx, code) in file.code.iter().enumerate() {
            if file.is_test[idx] {
                continue;
            }
            let hit = TRANSCENDENTAL.iter().any(|p| code.contains(p)) || Self::risky_division(code);
            if !hit || file.allowed(idx, "unchecked_float") {
                continue;
            }
            if self.fn_has_guard(file, idx) {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: file.path.clone(),
                line: idx + 1,
                message: "float operation with no finite-guard evidence \
                          (is_finite/is_nan/zero-or-empty check/clamp) in the \
                          enclosing function; add a guard or waive with \
                          `// lint: allow(unchecked_float)`"
                    .to_string(),
                excerpt: file.lines[idx].trim().to_string(),
            });
        }
    }
}

/// `thread-discipline`: all parallelism lives in `bench/src/sweep.rs`
/// (the deterministic index-ordered runner). Threads anywhere else are
/// an ordering hazard for merged output.
pub struct ThreadDiscipline;

impl Rule for ThreadDiscipline {
    fn id(&self) -> &'static str {
        "thread-discipline"
    }
    fn description(&self) -> &'static str {
        "thread creation outside bench/src/sweep.rs"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.path.to_string_lossy().ends_with("bench/src/sweep.rs") {
            return;
        }
        flag_patterns(
            self,
            file,
            &[
                "thread::spawn",
                "thread::scope",
                "thread::Builder",
                ".spawn(",
            ],
            false, // tests may exercise thread-safety directly
            "threads",
            "thread creation outside the deterministic sweep runner \
             (bench/src/sweep.rs); route the work through run_figure/\
             run_sweep_supervised_with or waive with `// lint: allow(threads)`",
            out,
        );
    }
}

/// `entropy`: ambient randomness (`thread_rng`, `RandomState`,
/// `getrandom`) breaks the `(configuration, seed)` purity of every run.
/// All randomness must come from the forkable seeded `DetRng`.
pub struct Entropy;

impl Rule for Entropy {
    fn id(&self) -> &'static str {
        "entropy"
    }
    fn description(&self) -> &'static str {
        "ambient (non-seeded) randomness"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        flag_patterns(
            self,
            file,
            &[
                "thread_rng",
                "from_entropy",
                "RandomState",
                "getrandom",
                "rand::random",
            ],
            true,
            "entropy",
            "ambient randomness; derive a stream from the seeded DetRng \
             (fork a label) so the run stays a pure function of its seed",
            out,
        );
    }
}

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

impl BoundedRetry {
    /// `(header_line, last_line)` of every `loop { … }` / `while true`
    /// body, by brace tracking over the blanked text (`for`/conditional
    /// `while` loops are bounded by their header and not tracked).
    fn loop_spans(code: &[String]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut depth: i32 = 0;
        // (header_line, body_depth) of loops whose body is open.
        let mut open: Vec<(usize, i32)> = Vec::new();
        let mut header: Option<usize> = None;
        for (idx, line) in code.iter().enumerate() {
            if header.is_none() && (line.contains("loop {") || line.contains("while true")) {
                header = Some(idx);
            }
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if let Some(start) = header.take() {
                            open.push((start, depth));
                        }
                    }
                    '}' => {
                        if let Some(&(start, d)) = open.last() {
                            if d == depth {
                                open.pop();
                                spans.push((start, idx));
                            }
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
        }
        spans.sort_unstable();
        spans
    }
}

impl Rule for BoundedRetry {
    fn id(&self) -> &'static str {
        "bounded-retry"
    }
    fn description(&self) -> &'static str {
        "unbounded retry/backoff loop without an explicit attempt bound"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (start, end) in Self::loop_spans(&file.code) {
            if file.is_test[start] {
                continue;
            }
            let body = &file.code[start..=end];
            let retries = body
                .iter()
                .any(|l| RETRY_IDIOMS.iter().any(|p| l.contains(p)));
            if !retries {
                continue;
            }
            let bounded = body
                .iter()
                .any(|l| RETRY_BOUND_EVIDENCE.iter().any(|p| l.contains(p)));
            if bounded
                || file.allowed(start, "bounded-retry")
                || file.allowed(start, "bounded_retry")
            {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: file.path.clone(),
                line: start + 1,
                message: "unbounded retry loop; iterate an explicit attempt range \
                          (`for attempt in 1..=max_attempts`), compare a counter \
                          against a limit inside the body, or waive an audited \
                          exception with `// lint: allow(bounded-retry)`"
                    .to_string(),
                excerpt: file.lines[start].trim().to_string(),
            });
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

/// The identifier following a standalone `fn ` token on `line`.
fn fn_name(line: &str) -> Option<&str> {
    let pos = find_fn_token(line)?;
    let rest = &line[pos + 3..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

impl Rule for NoPerPacketAlloc {
    fn id(&self) -> &'static str {
        "no-per-packet-alloc"
    }
    fn description(&self) -> &'static str {
        "heap allocation inside a per-packet or per-MI hot function (netsim, core, learned)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let hot_fns = match file.krate.as_str() {
            "netsim" => HOT_FNS,
            "core" => CORE_HOT_FNS,
            "learned" => LEARNED_HOT_FNS,
            _ => return,
        };
        for (idx, code) in file.code.iter().enumerate() {
            if file.is_test[idx] {
                continue;
            }
            if !ALLOC_PATTERNS.iter().any(|p| code.contains(p)) {
                continue;
            }
            let Some((start, _)) = file.enclosing_fn(idx) else {
                continue;
            };
            let Some(name) = fn_name(&file.code[start]) else {
                continue;
            };
            if !hot_fns.contains(&name) {
                continue;
            }
            if file.allowed(idx, "no-per-packet-alloc") || file.allowed(idx, "no_per_packet_alloc")
            {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: file.path.clone(),
                line: idx + 1,
                message: format!(
                    "heap allocation inside hot function `{name}`; use a caller-owned \
                     scratch buffer, a PacketPool slot or a fixed array, or waive \
                     an audited cold branch with `// lint: allow(no-per-packet-alloc)`"
                ),
                excerpt: file.lines[idx].trim().to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn findings(path: &str, text: &str) -> Vec<Finding> {
        let f = SourceFile::from_source(Path::new(path), text);
        let mut out = Vec::new();
        for rule in all_rules() {
            rule.check(&f, &mut out);
        }
        out
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = all_rules().iter().map(|r| r.id()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 8);
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
    fn fn_name_parses_headers() {
        assert_eq!(
            fn_name("    pub fn try_emit(&mut self) {"),
            Some("try_emit")
        );
        assert_eq!(
            fn_name("fn pop(&mut self) -> Option<TimedEvent> {"),
            Some("pop")
        );
        assert_eq!(fn_name("let not_a_fn = 1;"), None);
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
        assert!(!FloatGuard::risky_division("let x = y / 2.0;"));
        assert!(FloatGuard::risky_division("let x = y / n;"));
        assert!(!FloatGuard::risky_division("let x = y /= 2;"));
    }
}
