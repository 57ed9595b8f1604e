//! Trained-model cache.
//!
//! Experiment binaries need PPO weights for Libra, Orca, Aurora and
//! Mod. RL. Training is deterministic but takes a little while, so
//! weights are cached as JSON under `target/models/` keyed by
//! `(controller, seed)`; a cold run trains and saves, a warm run loads.

use libra_core::{train_libra, LibraVariant};
use libra_learned::{train_orca, train_rl_cca, EnvRanges, RlCcaConfig, TrainConfig};
use libra_rl::PpoWeights;
use libra_types::DetRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Where cached models live (`target/models` next to the workspace).
pub fn model_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("target");
    p.push("models");
    p
}

/// Write `contents` to `path` through a temporary file in the same
/// directory, synced and then renamed over `path`, so a reader (or a
/// crash) sees either the old file or the complete new one, never a
/// truncated one. The temporary name carries the process id, so
/// concurrent writers never share one.
fn write_atomically(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(contents.as_bytes())?;
        f.sync_all()
    });
    written
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Loads/trains/caches PPO weights.
///
/// The store is shared read-mostly across sweep workers: every accessor
/// takes `&self`, loaded/trained weights are memoized in an in-process
/// cache, and callers receive cheap clones to instantiate per-worker
/// agents from. The map mutex is held only long enough to fetch or
/// insert a key's cell — never across a training run — so cold misses on
/// *different* keys train concurrently. Duplicate training of the *same*
/// key is still impossible: each key's `OnceLock` admits exactly one
/// trainer, and later same-key callers block on that cell alone.
/// Training is a pure function of the [`TrainConfig`], so whichever
/// thread trains first produces the same weights every other thread
/// would have.
pub struct ModelStore {
    seed: u64,
    /// When true, never touch the filesystem (unit tests).
    ephemeral: bool,
    train: TrainConfig,
    cache: Mutex<BTreeMap<String, Arc<OnceLock<PpoWeights>>>>,
}

impl ModelStore {
    /// A store rooted at `target/models`, keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        ModelStore {
            seed,
            ephemeral: false,
            // Enough to get competent (not perfect) policies in a few
            // minutes per model on a laptop.
            train: TrainConfig::new(360, EnvRanges::quick(), seed),
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// A store that never touches disk and trains minimally — for tests.
    pub fn ephemeral(seed: u64) -> Self {
        ModelStore {
            seed,
            ephemeral: true,
            train: TrainConfig {
                episode_secs: 2,
                update_every: 1,
                ..TrainConfig::new(2, EnvRanges::quick(), seed)
            },
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// The master seed the store was keyed with (recorded by pinned
    /// regressions so a replay can rebuild the identical store).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh RNG stream for agent restoration, derived from the store
    /// seed. Eval-mode agents never draw from it (deterministic mean
    /// actions), so handing each caller an identical fresh stream keeps
    /// restoration order-independent — a requirement for building CCAs
    /// concurrently on sweep workers.
    pub fn agent_rng(&self) -> DetRng {
        DetRng::new(self.seed ^ 0x57_0E)
    }

    fn path(&self, key: &str) -> PathBuf {
        model_dir().join(format!("{key}-seed{}.json", self.seed))
    }

    fn get_or_train(
        &self,
        key: &str,
        train: impl FnOnce(&TrainConfig) -> PpoWeights,
    ) -> PpoWeights {
        // Two-level locking: the map mutex guards only the key→cell
        // association; the cell serializes the miss path per key. Holding
        // the map lock across `load_or_train` (the old behaviour) made a
        // cold miss on "aurora" block an unrelated cold miss on "orca"
        // for a whole training run.
        let cell = {
            let mut cache = self.cache.lock().expect("model cache poisoned");
            Arc::clone(cache.entry(key.to_string()).or_default())
        };
        cell.get_or_init(|| self.load_or_train(key, train)).clone()
    }

    fn load_or_train(
        &self,
        key: &str,
        train: impl FnOnce(&TrainConfig) -> PpoWeights,
    ) -> PpoWeights {
        if !self.ephemeral {
            let path = self.path(key);
            if let Ok(s) = std::fs::read_to_string(&path) {
                // Hot-swap validation: weights loaded from disk are the
                // one path where corrupt parameters (NaN/∞, blown norms,
                // shapes other than the config's, from a truncated write
                // or a bad external edit) could be deployed without ever
                // passing a training-side check. Reject-and-retrain is
                // the rollback: training is a pure function of the
                // config, so the retrained weights are exactly what the
                // cache should have held.
                match serde_json::from_str::<PpoWeights>(&s) {
                    Ok(w) if w.is_valid() => return w,
                    Ok(_) => eprintln!(
                        "model cache at {} failed weight validation \
                         (mis-shaped, non-finite or out-of-bound parameters); retraining",
                        path.display()
                    ),
                    Err(_) => {
                        eprintln!("model cache at {} is corrupt; retraining", path.display());
                    }
                }
            }
        }
        eprintln!(
            "[models] training {key} ({} episodes)…",
            self.train.episodes
        );
        let w = train(&self.train);
        if !self.ephemeral {
            let path = self.path(key);
            match serde_json::to_string(&w) {
                Ok(s) => {
                    if let Err(e) = write_atomically(&path, &s) {
                        eprintln!("could not cache model at {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("could not serialize model {key}: {e}"),
            }
        }
        w
    }

    /// Libra's RL component, trained inside the given variant.
    pub fn libra(&self, variant: LibraVariant) -> PpoWeights {
        let key = match variant {
            LibraVariant::Cubic => "libra-cubic",
            LibraVariant::Bbr => "libra-bbr",
            LibraVariant::CleanSlate => "libra-clean-slate",
        };
        self.get_or_train(key, |cfg| train_libra(variant, cfg).weights)
    }

    /// Orca's agent.
    pub fn orca(&self) -> PpoWeights {
        self.get_or_train("orca", |cfg| train_orca(cfg).weights)
    }

    /// Aurora's agent.
    pub fn aurora(&self) -> PpoWeights {
        self.get_or_train("aurora", |cfg| {
            train_rl_cca(&RlCcaConfig::aurora(), cfg).weights
        })
    }

    /// Mod. RL's agent.
    pub fn mod_rl(&self) -> PpoWeights {
        self.get_or_train("mod-rl", |cfg| {
            train_rl_cca(&RlCcaConfig::mod_rl(), cfg).weights
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ephemeral_store_trains_without_disk() {
        let s = ModelStore::ephemeral(3);
        let w = s.aurora();
        assert_eq!(w.config.obs_dim, RlCcaConfig::aurora().ppo_config().obs_dim);
    }

    #[test]
    fn store_memoizes_training() {
        let s = ModelStore::ephemeral(4);
        let a = s.aurora();
        let b = s.aurora(); // second call must hit the in-process cache
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let s = ModelStore::ephemeral(5);
        let first = s.aurora();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let w = s.aurora();
                    assert_eq!(
                        serde_json::to_string(&w).unwrap(),
                        serde_json::to_string(&first).unwrap()
                    );
                });
            }
        });
    }

    #[test]
    fn distinct_cold_keys_train_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Two cold misses on *different* keys rendezvous inside their
        // train closures: both must be in-flight at once. Under the old
        // map-lock-across-training behaviour one trainer held the cache
        // mutex for its whole run, so the second could never enter and
        // this rendezvous would time out.
        let s = ModelStore::ephemeral(6);
        let in_train = AtomicUsize::new(0);
        let tiny = || {
            let mut rng = DetRng::new(1);
            libra_rl::PpoAgent::new(libra_rl::PpoConfig::new(2, 1), &mut rng).weights()
        };
        let rendezvous = || {
            in_train.fetch_add(1, Ordering::SeqCst);
            let t0 = libra_netsim::host_clock::stamp();
            while in_train.load(Ordering::SeqCst) < 2 {
                assert!(
                    t0.elapsed_ms() < 30_000.0,
                    "cold misses on distinct keys serialized (rendezvous timed out)"
                );
                std::hint::spin_loop();
            }
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                s.get_or_train("key-a", |_| {
                    rendezvous();
                    tiny()
                })
            });
            let b = scope.spawn(|| {
                s.get_or_train("key-b", |_| {
                    rendezvous();
                    tiny()
                })
            });
            a.join().unwrap();
            b.join().unwrap();
        });
        assert_eq!(in_train.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn same_cold_key_still_trains_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = ModelStore::ephemeral(7);
        let trained = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    s.get_or_train("same-key", |_| {
                        trained.fetch_add(1, Ordering::SeqCst);
                        let mut rng = DetRng::new(2);
                        libra_rl::PpoAgent::new(libra_rl::PpoConfig::new(2, 1), &mut rng).weights()
                    })
                });
            }
        });
        assert_eq!(trained.load(Ordering::SeqCst), 1, "same-key dedup");
    }

    #[test]
    fn disk_loaded_weights_are_validated_before_deployment() {
        // Plant a parseable-but-poisoned weight file at the store's cache
        // path: the load path must reject it (NaN parameters) and fall
        // back to retraining instead of hot-swapping garbage in.
        let key = format!("test-hotswap-{}", std::process::id());
        let store = ModelStore::new(901);
        let mut rng = DetRng::new(1);
        let mut agent = libra_rl::PpoAgent::new(libra_rl::PpoConfig::new(2, 1), &mut rng);
        agent.map_actor_params(|_| f64::NAN);
        let poisoned = agent.weights();
        assert!(!poisoned.is_valid());
        let path = store.path(&key);
        std::fs::create_dir_all(model_dir()).unwrap();
        std::fs::write(&path, serde_json::to_string(&poisoned).unwrap()).unwrap();
        let w = store.get_or_train(&key, |_| {
            let mut rng = DetRng::new(2);
            libra_rl::PpoAgent::new(libra_rl::PpoConfig::new(2, 1), &mut rng).weights()
        });
        assert!(
            w.is_valid(),
            "poisoned cached weights were deployed without validation"
        );
        // The rollback re-caches the retrained (valid) weights.
        let recached: PpoWeights =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(recached.is_valid());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mis_shaped_cache_file_is_retrained_not_deployed() {
        // Deploying either file would panic on the first forward: one
        // whose config no longer matches its networks (obs_dim 2 → 3,
        // fails validation) and one whose first weight matrix is an
        // element short (fails to parse). The load path must retrain.
        let store = ModelStore::new(902);
        let fresh = || {
            let mut rng = DetRng::new(3);
            libra_rl::PpoAgent::new(libra_rl::PpoConfig::new(2, 1), &mut rng).weights()
        };
        let good = serde_json::to_string(&fresh()).unwrap();
        // `good` without the first element of its first `data` array.
        let start = good.find("\"data\":[").unwrap() + "\"data\":[".len();
        let comma = start + good[start..].find(',').unwrap();
        let short = format!("{}{}", &good[..start], &good[comma + 1..]);
        let other_config = good.replacen("\"obs_dim\":2", "\"obs_dim\":3", 1);
        for (i, mis_shaped) in [other_config, short].into_iter().enumerate() {
            assert_ne!(mis_shaped, good);
            let key = format!("test-misshaped-{i}-{}", std::process::id());
            let path = store.path(&key);
            std::fs::create_dir_all(model_dir()).unwrap();
            std::fs::write(&path, &mis_shaped).unwrap();
            let w = store.get_or_train(&key, |_| fresh());
            assert_eq!(
                serde_json::to_string(&w).unwrap(),
                good,
                "mis-shaped cache file {i} was deployed instead of retrained"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_store_write_leaves_one_complete_file_and_no_temporary() {
        let store = ModelStore::new(903);
        let key = format!("test-atomic-{}", std::process::id());
        let path = store.path(&key);
        let _ = std::fs::remove_file(&path);
        let w = store.get_or_train(&key, |_| {
            let mut rng = DetRng::new(4);
            libra_rl::PpoAgent::new(libra_rl::PpoConfig::new(2, 1), &mut rng).weights()
        });
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let left: Vec<String> = std::fs::read_dir(model_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with(&name))
            .collect();
        assert_eq!(left, [name], "a temporary file was left behind");
        let cached: PpoWeights =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            serde_json::to_string(&cached).unwrap(),
            serde_json::to_string(&w).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn model_dir_is_under_target() {
        let d = model_dir();
        assert!(d.ends_with("target/models"));
    }
}
