//! Scenario-zoo registry: enumerate the declarative corpus and, with
//! `--check`, validate it (unique names, structural validation, serde
//! round-trip equality, deterministic link construction) — the CI gate
//! guarding the corpus format.

use libra_bench::{zoo_corpus, ScenarioSpec, Table, Workload};
use libra_types::Instant;

fn workload_cell(spec: &ScenarioSpec) -> String {
    match &spec.workload {
        Workload::Single => "single".into(),
        Workload::Pair { competitor } => format!("pair vs {}", competitor.label()),
        Workload::Staggered { flows, .. } => format!("staggered x{flows}"),
        Workload::Fleet { members } => format!("fleet[{}]", members.len()),
        Workload::Churn { mice, mouse, .. } => format!("{mice} {} mice", mouse.label()),
    }
}

fn link_cell(spec: &ScenarioSpec) -> String {
    format!("{:?}", spec.link)
        .split(' ')
        .next()
        .unwrap_or("?")
        .trim_end_matches('{')
        .to_string()
}

/// Validate the corpus; returns the list of problems (empty = healthy).
fn check(corpus: &[ScenarioSpec]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut names: Vec<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    for w in names.windows(2) {
        if w[0] == w[1] {
            problems.push(format!("duplicate corpus name {:?}", w[0]));
        }
    }
    for spec in corpus {
        if let Err(e) = spec.validate() {
            problems.push(format!("validate: {e}"));
            continue;
        }
        // Serde round-trip must reproduce the spec exactly.
        match serde_json::to_string(spec) {
            Ok(json) => match serde_json::from_str::<ScenarioSpec>(&json) {
                Ok(back) if back == *spec => {}
                Ok(_) => problems.push(format!("{}: round-trip changed the spec", spec.name)),
                Err(e) => problems.push(format!("{}: deserialize failed: {e}", spec.name)),
            },
            Err(e) => problems.push(format!("{}: serialize failed: {e}", spec.name)),
        }
        // Link construction must be deterministic per seed.
        for seed in [1u64, 99] {
            let a = spec.link(seed);
            let b = spec.link(seed);
            let same = (0..40).all(|k| {
                let t = Instant::from_millis(k * 250);
                a.capacity.rate_at(t) == b.capacity.rate_at(t)
            }) && a.buffer == b.buffer;
            if !same {
                problems.push(format!(
                    "{}: link(seed={seed}) not deterministic",
                    spec.name
                ));
            }
        }
    }
    problems
}

fn main() {
    let mut do_check = false;
    let mut secs = 20u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => do_check = true,
            "--quick" => secs = 5,
            "--secs" => {
                secs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--secs needs an integer");
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }

    let corpus = zoo_corpus(secs);
    if do_check {
        let problems = check(&corpus);
        if problems.is_empty() {
            println!("scenario corpus OK ({} entries)", corpus.len());
        } else {
            for p in &problems {
                eprintln!("scenario corpus: {p}");
            }
            std::process::exit(1);
        }
        return;
    }

    let mut table = Table::new(
        "Scenario zoo",
        &["name", "link", "queue", "workload", "secs"],
    );
    for spec in &corpus {
        table.row(vec![
            spec.name.clone(),
            link_cell(spec),
            spec.queue.label().to_string(),
            workload_cell(spec),
            format!("{}", spec.secs),
        ]);
    }
    table.emit("scenario_registry");
}
