//! `opt-net` — the communication substrate of the Optimus-CC reproduction.
//!
//! The paper runs on NCCL over NVLink (intra-node) and 200 Gb/s Infiniband
//! HDR (inter-node). This crate replaces that fabric for the numerical
//! trainer with real collectives and point-to-point lanes, written against
//! a pluggable [`Transport`]: [`P2pMesh`] gives every (src, dst) pair a
//! FIFO message lane (pipeline inter-stage traffic), and
//! [`CollectiveGroup`] implements a deterministic all-reduce over any
//! subset of ranks (data-parallel gradient exchange, embedding
//! synchronization, and the paper's *fused* embedding synchronization
//! which simply uses a larger group). Messages are typed values
//! ([`Transport::send_value`] / [`Transport::recv_value`]) and every
//! failure is a [`TransportError`]. Two backends exist: [`LocalTransport`]
//! (`transport.rs`: in-process crossbeam lanes, values cross as `Arc`s)
//! and [`TcpTransport`] (`tcp.rs`: one OS process per rank, values encoded
//! into length-framed checksummed TCP). Collectives reduce strictly in
//! member order, so both backends produce **the same bits**. (The
//! simulator's analytic link model lives in `opt-sim`.) A TCP mesh is
//! fixed once established: a rank that dies surfaces as
//! [`TransportError::Disconnected`] on the next send to it or receive
//! from it, and a world that loses a rank is relaunched whole.
//!
//! Traffic is accounted per class ([`TrafficClass`]) by [`TrafficLedger`],
//! which experiments read to verify volume reductions.
//!
//! The crate also provides the **rendezvous + fetch** substrate for
//! cross-host elastic restore: a [`ShardStore`] of named blobs (an
//! in-process [`MemShardStore`], a filesystem-backed [`FsShardStore`],
//! and a genuinely remote [`TcpShardStore`] client talking to a
//! [`ShardStoreServer`]) through which restarted workers resolve the
//! checkpoint manifest and fetch only their own shard.

mod chanstats;
mod collective;
mod p2p;
mod rendezvous;
mod retry;
mod shardstore;
mod tcp;
mod traffic;
mod transport;

pub use chanstats::{ChannelClass, ChannelLedger, ChannelStat, TrafficBreakdown};
pub use collective::{CollectiveGroup, CollectiveWorld};
pub use p2p::P2pMesh;
pub use rendezvous::tcp_rendezvous;
pub use retry::RetryPolicy;
pub use shardstore::{
    FsShardStore, MemShardStore, ShardStore, ShardStoreError, ShardStoreServer, TcpShardStore,
    STORE_MAGIC, STORE_PROTOCOL_VERSION,
};
pub use tcp::{
    wire_frame, wire_hello, TcpBound, TcpTransport, WIRE_FORMAT_VERSION, WIRE_MAGIC,
    WIRE_OVERHEAD_BYTES,
};
pub use traffic::{TrafficClass, TrafficLedger, TrafficSnapshot};
pub use transport::{
    channel_id, net_timeout, LocalTransport, Payload, SharedPayload, Transport, TransportError,
};
