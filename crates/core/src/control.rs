//! The control plane: the one vocabulary of typed messages a coordinator
//! and its workers exchange, and the transport lanes they travel on.
//!
//! Worker threads over `LocalTransport` and worker processes over
//! `TcpTransport` speak exactly these messages — in-process they cross as
//! `Arc`s with zero serialization, over TCP they are encoded once at the
//! socket. Commands travel on [`CH_CMD`] and are handled strictly in
//! order, so every request has barrier semantics: its reply is only sent
//! after everything queued before it has retired. Each reply type has a
//! lane of its own and travels as `(request id, body)`.

use crate::stats::RawSamples;
use opt_ckpt::CkptError;
use opt_net::{channel_id, ChannelStat, ShardStore, ShardStoreError, TrafficSnapshot};
use opt_tensor::{Persist, PersistError, Reader, Writer};
use std::sync::Arc;
use std::time::Duration;

/// Channel namespace 1: the two pipeline meshes.
pub(crate) const CH_FWD: u64 = channel_id(1, 0);
pub(crate) const CH_BWD: u64 = channel_id(1, 1);

/// Channel namespace 3: coordinator -> worker commands, then one lane per
/// worker -> coordinator reply type (index 6 is free).
pub(crate) const CH_CMD: u64 = channel_id(3, 0);
pub(crate) const CH_ACK: u64 = channel_id(3, 1);
pub(crate) const CH_SHARD: u64 = channel_id(3, 2);
pub(crate) const CH_RESTORE: u64 = channel_id(3, 3);
pub(crate) const CH_METRICS: u64 = channel_id(3, 4);
pub(crate) const CH_TRACE: u64 = channel_id(3, 5);
pub(crate) const CH_SECTION: u64 = channel_id(3, 7);
pub(crate) const CH_PREDICT: u64 = channel_id(3, 8);

/// How long either side waits on the control plane before giving up. A
/// barrier ack covers a whole batch of training iterations, so this is
/// deliberately generous.
pub(crate) const CTRL_TIMEOUT: Duration = Duration::from_secs(600);

/// The coordinator waits in slices of this length, asking the launcher
/// between slices whether the awaited worker is still alive — so a dead
/// worker surfaces in about a slice, not after [`CTRL_TIMEOUT`].
pub(crate) const CTRL_SLICE: Duration = Duration::from_millis(250);

/// Where a worker finds the shard store for `PublishShard` and
/// `SelfRestore`. A worker process fills it once with its TCP client; a
/// thread world shares one slot, which the trainer points at the store of
/// the call in flight before it sends the command.
pub(crate) type StoreSlot = Arc<parking_lot::Mutex<Option<Arc<dyn ShardStore>>>>;

/// A shard-store failure as the checkpoint error every caller reports.
pub(crate) fn store_err(e: ShardStoreError) -> CkptError {
    CkptError::Store {
        what: e.to_string(),
    }
}

/// The commands a coordinator sends its workers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireCmd {
    /// Run one full training iteration (all micro-batches + DP + sync).
    TrainIter { iter: u64 },
    /// Run a validation forward pass (dp rank 0's pipeline only).
    Validate { iter: u64, index: u64, n_seq: usize },
    /// Reply with a [`WorkerAck`] once all prior commands finished.
    Barrier { id: u64 },
    /// Serialize all training state into a per-rank shard, publish it to
    /// the shard store under this rank's well-known name, and reply with
    /// the manifest entry (or the failure). `iter` is stamped into the
    /// shard header so a fetching worker can cross-check the manifest.
    PublishShard { id: u64, iter: u64 },
    /// Rendezvous on the store's manifest, fetch *only this rank's*
    /// shard, validate it, apply it, and reply with the iteration it was
    /// taken at. The coordinator holds no worker state on this path.
    SelfRestore { id: u64 },
    /// Reply with this rank's samples, ledger and lane counters.
    FetchMetrics { id: u64 },
    /// Exit the worker loop.
    Stop,
    /// Drain the trace buffer (spans recorded since the last drain).
    FetchTrace { id: u64 },
    /// Reply with all training state as an `opt_ckpt::RankSection`.
    Snapshot { id: u64 },
    /// Run an inference forward pass (dp rank 0's pipeline only); the
    /// last stage replies with the last-position argmaxes.
    Predict { id: u64, tokens: Vec<usize> },
}

impl Persist for WireCmd {
    fn persist(&self, w: &mut Writer) {
        match self {
            WireCmd::TrainIter { iter } => {
                w.u8(0);
                w.u64(*iter);
            }
            WireCmd::Validate { iter, index, n_seq } => {
                w.u8(1);
                w.u64(*iter);
                w.u64(*index);
                w.usize(*n_seq);
            }
            WireCmd::Barrier { id } => {
                w.u8(2);
                w.u64(*id);
            }
            WireCmd::PublishShard { id, iter } => {
                w.u8(3);
                w.u64(*id);
                w.u64(*iter);
            }
            WireCmd::SelfRestore { id } => {
                w.u8(4);
                w.u64(*id);
            }
            WireCmd::FetchMetrics { id } => {
                w.u8(5);
                w.u64(*id);
            }
            WireCmd::Stop => w.u8(6),
            WireCmd::FetchTrace { id } => {
                w.u8(7);
                w.u64(*id);
            }
            WireCmd::Snapshot { id } => {
                w.u8(8);
                w.u64(*id);
            }
            WireCmd::Predict { id, tokens } => {
                w.u8(10);
                w.u64(*id);
                tokens.persist(w);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => WireCmd::TrainIter { iter: r.u64()? },
            1 => WireCmd::Validate {
                iter: r.u64()?,
                index: r.u64()?,
                n_seq: r.usize()?,
            },
            2 => WireCmd::Barrier { id: r.u64()? },
            3 => WireCmd::PublishShard {
                id: r.u64()?,
                iter: r.u64()?,
            },
            4 => WireCmd::SelfRestore { id: r.u64()? },
            5 => WireCmd::FetchMetrics { id: r.u64()? },
            6 => WireCmd::Stop,
            7 => WireCmd::FetchTrace { id: r.u64()? },
            8 => WireCmd::Snapshot { id: r.u64()? },
            // Tag 9 was the coordinator-pushed `Restore`: retired, not
            // reused, so a stale frame is refused instead of misread.
            10 => WireCmd::Predict {
                id: r.u64()?,
                tokens: Vec::restore(r)?,
            },
            tag => {
                return Err(PersistError::BadTag {
                    what: "WireCmd",
                    tag,
                })
            }
        })
    }
}

/// Barrier acknowledgement with memory accounting (Fig. 12).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerAck {
    /// Scalar parameter elements on this worker.
    pub param_elems: usize,
    /// Lazy-error buffer elements (CB + LEP).
    pub lazy_error_elems: usize,
    /// PowerSGD warm-start + EF buffer elements (CB link + DP state).
    pub compressor_elems: usize,
}

impl Persist for WorkerAck {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.param_elems);
        w.usize(self.lazy_error_elems);
        w.usize(self.compressor_elems);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(WorkerAck {
            param_elems: r.usize()?,
            lazy_error_elems: r.usize()?,
            compressor_elems: r.usize()?,
        })
    }
}

/// One worker's metrics reply: its raw samples, its ledger, and its own
/// half of every lane it touched (its sends and its receives) — the
/// coordinator reassembles whole lanes across ranks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricsMsg {
    pub raw: RawSamples,
    pub traffic: TrafficSnapshot,
    pub channels: Vec<ChannelStat>,
}

impl Persist for MetricsMsg {
    fn persist(&self, w: &mut Writer) {
        self.raw.persist(w);
        self.traffic.persist(w);
        self.channels.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(MetricsMsg {
            raw: Persist::restore(r)?,
            traffic: Persist::restore(r)?,
            channels: Persist::restore(r)?,
        })
    }
}

/// A checkpoint outcome crossing the control plane (the reply to
/// `PublishShard` and `SelfRestore`).
///
/// `CkptError` is not `Persist`, which typed lanes need: a zero-copy
/// handoff delivers the worker's typed error intact, while a byte boundary
/// carries the error's display string, which arrives as
/// [`CkptError::Store`] — how every remote failure is surfaced.
#[derive(Debug, Clone)]
pub(crate) struct Outcome<T>(Result<T, CkptError>);

impl<T> From<Result<T, CkptError>> for Outcome<T> {
    fn from(result: Result<T, CkptError>) -> Self {
        Outcome(result)
    }
}

impl<T> Outcome<T> {
    pub(crate) fn into_result(self) -> Result<T, CkptError> {
        self.0
    }
}

impl<T: Persist> Persist for Outcome<T> {
    fn persist(&self, w: &mut Writer) {
        match &self.0 {
            Ok(v) => {
                w.u8(0);
                v.persist(w);
            }
            Err(e) => {
                w.u8(1);
                e.to_string().persist(w);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Outcome(match r.u8()? {
            0 => Ok(T::restore(r)?),
            1 => Err(CkptError::Store {
                what: String::restore(r)?,
            }),
            tag => {
                return Err(PersistError::BadTag {
                    what: "Outcome",
                    tag,
                })
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_ckpt::RankSection;
    use opt_net::{LocalTransport, Transport};
    use opt_tensor::Matrix;

    /// Sends `value` through a zero-copy `Payload::Shared` handoff and
    /// through an encode/decode cycle; both must hand back an equal value.
    fn roundtrips<T>(value: T)
    where
        T: Persist + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
    {
        let local = LocalTransport::new(2);
        local.send_value(0, 1, CH_CMD, value.clone()).unwrap();
        let shared: T = local.recv_value(0, 1, CH_CMD, CTRL_SLICE).unwrap();
        assert_eq!(shared, value);
        assert_eq!(T::from_bytes(&value.to_bytes()).unwrap(), value);
    }

    #[test]
    fn wire_cmds_roundtrip() {
        let section = RankSection {
            stage: 1,
            dp: 0,
            params: vec![Matrix::full(2, 3, 0.5), Matrix::zeros(1, 4)],
            optimizer: vec![1, 2, 3],
            cb_link: vec![0],
            dp_state: Vec::new(),
        };
        let (id, iter, index, n_seq) = (9, 7, 4, 32);
        for cmd in [
            WireCmd::TrainIter { iter },
            WireCmd::Validate { iter, index, n_seq },
            WireCmd::Barrier { id },
            WireCmd::PublishShard { id, iter },
            WireCmd::SelfRestore { id },
            WireCmd::FetchMetrics { id },
            WireCmd::FetchTrace { id },
            WireCmd::Snapshot { id },
            WireCmd::Predict {
                id,
                tokens: vec![3, 1, 4, 1, 5],
            },
            WireCmd::Stop,
        ] {
            roundtrips(cmd);
        }
        assert!(WireCmd::from_bytes(&[9]).is_err(), "retired tag accepted");
        assert!(WireCmd::from_bytes(&[11]).is_err(), "unknown tag accepted");

        // Replies travel as `(request id, body)`.
        roundtrips((
            id,
            WorkerAck {
                param_elems: 100,
                lazy_error_elems: 5,
                compressor_elems: 20,
            },
        ));
        let lane = ChannelStat {
            dst: 1,
            channel: CH_FWD,
            sends: 4,
            send_bytes: 512,
            ..ChannelStat::default()
        };
        let raw = RawSamples {
            train: vec![(0, 2.5), (1, 2.25)],
            val: vec![(1, 2.0)],
            error_stats: Vec::new(),
        };
        roundtrips((
            id,
            MetricsMsg {
                raw,
                traffic: TrafficSnapshot::default(),
                channels: vec![lane],
            },
        ));
        roundtrips((id, section));
        roundtrips((id, vec![7usize, 9]));
        let spans = Vec::new();
        roundtrips((
            id,
            opt_trace::TraceBuffer {
                rank: 1,
                stage: 1,
                dp: 0,
                spans,
            },
        ));
    }

    #[test]
    fn outcomes_keep_typed_errors_in_process_and_flatten_them_on_a_wire() {
        let ok: Outcome<u64> = Ok(42).into();
        let back = Outcome::<u64>::from_bytes(&ok.to_bytes()).unwrap();
        assert_eq!(back.into_result().unwrap(), 42);

        let refused = || Outcome::<u64>::from(Err(CkptError::BadMagic));
        let local = LocalTransport::new(2);
        local.send_value(0, 1, CH_RESTORE, refused()).unwrap();
        let shared: Outcome<u64> = local.recv_value(0, 1, CH_RESTORE, CTRL_SLICE).unwrap();
        assert!(matches!(shared.into_result(), Err(CkptError::BadMagic)));

        let wired = Outcome::<u64>::from_bytes(&refused().to_bytes()).unwrap();
        match wired.into_result() {
            Err(CkptError::Store { what }) => assert!(what.contains("bad magic")),
            other => panic!("expected Store error, got {other:?}"),
        }
    }
}
