//! One launched training world — threads or processes behind the same
//! calls — and the watchdog every round runs under.

use crate::workload::Launch;
use opt_net::{MemShardStore, ShardStore, ShardStoreServer};
use optimus_cc::{ProcOptions, ProcTrainer, Trace, TraceMode, TrainReport, Trainer, TrainerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// What the TCP worlds need around them: the worker binary, a shard store
/// for them to connect to, and a rendezvous directory.
pub struct TcpEnv {
    worker_bin: PathBuf,
    scratch: PathBuf,
    store: ShardStoreServer,
}

impl TcpEnv {
    /// `bench_worker` is built into the same directory as this binary.
    pub fn new(out_dir: &Path) -> Result<TcpEnv, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let worker_bin = exe.with_file_name("bench_worker");
        if !worker_bin.is_file() {
            return Err(format!("{} is missing", worker_bin.display()));
        }
        let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        let store = ShardStoreServer::spawn(store, "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(TcpEnv {
            worker_bin,
            scratch,
            store,
        })
    }

    fn options(&self) -> ProcOptions {
        ProcOptions {
            worker_bin: self.worker_bin.clone(),
            store_addr: self.store.addr(),
            scratch_dir: self.scratch.clone(),
        }
    }

    /// A fresh directory for one in-process rendezvous.
    pub fn rendezvous_dir(&self, tag: &str) -> PathBuf {
        self.scratch.join(tag)
    }
}

impl Drop for TcpEnv {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The transport a workload runs over, with what it takes to launch on it.
#[derive(Clone)]
pub enum Fabric {
    Local,
    Tcp(Arc<TcpEnv>),
}

impl Fabric {
    pub fn new(launch: Launch, out_dir: &Path) -> Result<Fabric, String> {
        Ok(match launch {
            Launch::Local => Fabric::Local,
            Launch::Tcp => Fabric::Tcp(Arc::new(TcpEnv::new(out_dir)?)),
        })
    }
}

pub enum World {
    Local(Trainer),
    Tcp(ProcTrainer),
}

impl World {
    fn launch(cfg: TrainerConfig, fabric: &Fabric, trace: TraceMode) -> Result<World, String> {
        match fabric {
            Fabric::Local => Ok(World::Local(Trainer::launch_with_trace(cfg, trace))),
            Fabric::Tcp(env) => Trainer::launch_processes_traced(cfg, env.options(), trace)
                .map(World::Tcp)
                .map_err(|e| format!("launch_processes: {e}")),
        }
    }

    pub fn train_more(&mut self, extra: u64) -> Result<(), String> {
        match self {
            World::Local(t) => {
                t.train_more(extra);
                Ok(())
            }
            World::Tcp(t) => t.train_more(extra).map_err(|e| format!("train_more: {e}")),
        }
    }

    /// Finishes the configured iterations (none are left when the caller
    /// stepped there with `train_more`), validates, and reports.
    pub fn train(&mut self) -> Result<TrainReport, String> {
        match self {
            World::Local(t) => Ok(t.train()),
            World::Tcp(t) => t.train().map_err(|e| format!("train: {e}")),
        }
    }

    pub fn take_trace(&mut self) -> Result<Option<Trace>, String> {
        match self {
            World::Local(t) => Ok(t.take_trace()),
            World::Tcp(t) => t.take_trace().map_err(|e| format!("take_trace: {e}")),
        }
    }

    /// Wall-clock milliseconds and encoded bytes of one `Trainer::snapshot()`;
    /// `None` on a process world, which has no monolithic snapshot.
    pub fn time_snapshot(&mut self) -> Option<(f64, u64)> {
        let World::Local(t) = self else { return None };
        let started = std::time::Instant::now();
        let snapshot = t.snapshot();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        Some((ms, snapshot.encode().len() as u64))
    }

    /// Bytes of compressor and lazy-error state per worker (`f32` elements
    /// of `memory_report()`); `None` on a process world.
    pub fn compress_state_bytes(&mut self) -> Option<u64> {
        let World::Local(t) = self else { return None };
        let m = t.memory_report();
        Some(4 * (m.compressor_elems + m.lazy_error_elems) as u64)
    }

    pub fn worker_pids(&self) -> Vec<u32> {
        match self {
            World::Local(_) => Vec::new(),
            World::Tcp(t) => t.worker_pids(),
        }
    }

    fn shutdown(self) -> Result<(), String> {
        match self {
            World::Local(t) => {
                t.shutdown();
                Ok(())
            }
            World::Tcp(t) => t.shutdown().map_err(|e| format!("shutdown: {e}")),
        }
    }

    /// Kills and reaps the worker processes of a world that failed.
    fn abort(self) {
        if let World::Tcp(t) = self {
            t.abort();
        }
    }

    /// Launches a world, lets `body` drive it, and takes it down again:
    /// a clean shutdown after `Ok`, kill-and-reap after `Err`. The worker
    /// pids are published first, so the watchdog can reach them.
    pub fn run<T>(
        cfg: TrainerConfig,
        fabric: &Fabric,
        trace: TraceMode,
        progress: &Progress,
        body: impl FnOnce(&mut World) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut world = World::launch(cfg, fabric, trace)?;
        *progress.pids.lock().expect("pid list poisoned") = world.worker_pids();
        match body(&mut world) {
            Ok(out) => world.shutdown().map(|()| out),
            Err(e) => {
                world.abort();
                Err(e)
            }
        }
    }
}

/// Peak resident set of a live process, in kB (`VmHWM`).
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Progress a round publishes while it runs, so that a round the watchdog
/// gives up on still has its iterations counted and its processes killed.
#[derive(Default)]
pub struct Progress {
    pub attempted: AtomicU64,
    pub completed: AtomicU64,
    pub pids: Mutex<Vec<u32>>,
}

impl Progress {
    pub fn step(&self, world: &mut World, n: u64) -> Result<(), String> {
        self.attempted.fetch_add(n, Ordering::Relaxed);
        world.train_more(n)?;
        self.completed.fetch_add(n, Ordering::Relaxed);
        Ok(())
    }
}

/// Runs `round` on its own thread and waits at most `limit` for it. A
/// round that returns `Err`, panics, or outlives the limit comes back as
/// `Err`; in the last case its worker processes are killed first, which
/// also unblocks the round's thread so it can reap them.
pub fn watchdog<T: Send + 'static>(
    limit: Duration,
    progress: &Arc<Progress>,
    round: impl FnOnce(&Progress) -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(progress);
    let handle = std::thread::Builder::new()
        .name("round".into())
        .spawn(move || {
            let _ = tx.send(round(&shared));
        })
        .map_err(|e| format!("spawn round thread: {e}"))?;
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => Err(format!("round panicked: {}", panic_text(&panic))),
            Ok(()) => Err("round ended without a result".into()),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            for pid in progress.pids.lock().expect("pid list poisoned").drain(..) {
                let _ = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status();
            }
            // With its workers gone a TCP round fails fast and reaps them;
            // a deadlocked thread world cannot be unblocked, so its thread
            // is left behind and dies with the process.
            let _ = rx.recv_timeout(Duration::from_secs(5));
            Err(format!(
                "watchdog: round exceeded {:.0} s",
                limit.as_secs_f64()
            ))
        }
    }
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_results_and_catches_panics_and_hangs() {
        let progress = Arc::new(Progress::default());
        let limit = Duration::from_secs(5);
        assert_eq!(watchdog(limit, &progress, |_| Ok(7)), Ok(7));
        assert_eq!(
            watchdog(limit, &progress, |_| Err::<(), _>("boom".to_string())),
            Err("boom".into())
        );
        let panicked = watchdog(limit, &progress, |_| -> Result<(), String> {
            panic!("ouch")
        });
        assert!(panicked.unwrap_err().contains("ouch"));
        // A round that outlives its 50 ms limit and is released well after
        // it, inside the watchdog's grace period.
        let (release, gate) = mpsc::channel::<()>();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            drop(release);
        });
        let hung = watchdog(Duration::from_millis(50), &progress, move |_| {
            let _ = gate.recv();
            Ok(())
        });
        assert!(hung.unwrap_err().contains("watchdog"));
        releaser.join().unwrap();
    }
}
