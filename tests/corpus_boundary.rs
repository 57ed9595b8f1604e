//! The corpus boundary: a scenario read from JSON is either a valid
//! [`ScenarioSpec`] or an `Err`, never a panic. Every case starts from a
//! real corpus entry — a zoo scenario or a pinned regression's spec —
//! and plants one defect in its workload: an unknown controller label,
//! zero flows, a stagger/period/mouse time past the `u64` nanosecond
//! clock, an empty fleet, or degenerate churn. Reading the JSON
//! (`serde_json::from_str`) and then `validate()` must reject it.

use libra_bench::{load_pins, zoo_corpus, PinnedRegression, ScenarioSpec};
use proptest::prelude::*;
use std::path::Path;

/// The last whole second the nanosecond clock holds.
const LAST_S: u64 = u64::MAX / 1_000_000_000;

/// Labels no corpus controller answers to: misspellings, a
/// preference-suffixed Libra, a controller outside `Cca::ALL`, nothing.
const UNKNOWN: [&str; 5] = ["NoSuchCca", "cubic", "C-Libra-La-1", "DCTCP", ""];

fn pin_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/pinned")
}

fn bases() -> Vec<ScenarioSpec> {
    let pinned = load_pins(&pin_dir()).expect("tests/pinned must load");
    zoo_corpus(10)
        .into_iter()
        .chain(pinned.into_iter().map(|pin| pin.spec))
        .collect()
}

/// `base`'s JSON with its workload replaced by `workload` (raw JSON).
fn planted(base: &ScenarioSpec, workload: &str) -> String {
    let json = serde_json::to_string(base).expect("corpus entries serialize");
    let old = serde_json::to_string(&base.workload).expect("workloads serialize");
    let key = format!("\"workload\":{old}");
    assert!(json.contains(&key), "{json}");
    json.replace(&key, &format!("\"workload\":{workload}"))
}

/// One defective workload per `kind`; `n` and `pick` vary its numbers.
fn defect(kind: u8, n: u64, pick: usize) -> String {
    let label = UNKNOWN[pick % UNKNOWN.len()];
    let big = LAST_S + 1 + n % (u64::MAX - LAST_S);
    let flows = 2 + n % 999;
    match kind {
        0 => format!(r#"{{"Pair":{{"competitor":"{label}"}}}}"#),
        1 => format!(r#"{{"Fleet":{{"members":["CUBIC","{label}"]}}}}"#),
        2 => {
            format!(r#"{{"Churn":{{"mouse":"{label}","mice":2,"mouse_secs":3,"period_secs":4}}}}"#)
        }
        3 => format!(r#"{{"Staggered":{{"flows":0,"stagger_secs":{}}}}}"#, n % 10),
        4 => format!(r#"{{"Staggered":{{"flows":{flows},"stagger_secs":{big}}}}}"#),
        // Each stagger fits the clock; the last flow's start does not.
        5 => format!(
            r#"{{"Staggered":{{"flows":{flows},"stagger_secs":{}}}}}"#,
            LAST_S / flows + 1 + n % (LAST_S - LAST_S / flows)
        ),
        6 => format!(
            r#"{{"Churn":{{"mouse":"CUBIC","mice":2,"mouse_secs":3,"period_secs":{big}}}}}"#
        ),
        7 => format!(
            r#"{{"Churn":{{"mouse":"CUBIC","mice":2,"mouse_secs":{big},"period_secs":4}}}}"#
        ),
        8 => r#"{"Fleet":{"members":[]}}"#.to_string(),
        _ => {
            let mut counts = [2, 3, 4];
            counts[pick % 3] = 0;
            let [mice, mouse_secs, period_secs] = counts;
            format!(
                r#"{{"Churn":{{"mouse":"BBR","mice":{mice},"mouse_secs":{mouse_secs},"period_secs":{period_secs}}}}}"#
            )
        }
    }
}

#[test]
fn every_base_reads_back_and_validates() {
    for base in bases() {
        let json = serde_json::to_string(&base).expect("serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("reads back");
        assert_eq!(back, base);
        back.validate().expect("corpus entries validate");
    }
}

#[test]
fn pinned_files_reserialize_byte_identically() {
    for entry in std::fs::read_dir(pin_dir()).expect("tests/pinned is readable") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("pin is readable");
        let pin: PinnedRegression = serde_json::from_str(&text).expect("pin parses");
        let again = serde_json::to_string(&pin).expect("pin serializes");
        assert_eq!(again, text.trim_end(), "{}", path.display());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn planted_defects_are_rejected_without_panic(
        which in 0usize..1000,
        kind in 0u8..10,
        n in 0u64..u64::MAX,
        pick in 0usize..1000,
    ) {
        let bases = bases();
        let base = &bases[which % bases.len()];
        let json = planted(base, &defect(kind, n, pick));
        let verdict = serde_json::from_str::<ScenarioSpec>(&json)
            .map_err(|e| e.to_string())
            .and_then(|spec| spec.validate());
        prop_assert!(verdict.is_err(), "accepted: {json}");
    }
}
