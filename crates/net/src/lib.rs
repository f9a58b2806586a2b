//! # gcs-net — transport substrates
//!
//! The paper's full architecture (Fig 9) rests on two transport components:
//!
//! * the **unreliable transport** (`u-send` / `u-receive`) — in this
//!   reproduction that role is played by the simulator network itself
//!   ([`gcs_kernel::Context::send`] *is* `u-send`), so no code is needed
//!   here beyond the convention;
//! * the **reliable channel** (§3.3.1) — "if a correct process p sends
//!   message m to some correct process q, then q eventually receives m",
//!   easily implemented over TCP in the paper (its ref. 15); here implemented from
//!   scratch over the lossy simulated network: per-peer sequence numbers,
//!   cumulative acknowledgements, retransmission, FIFO reordering and
//!   duplicate suppression.
//!
//! The reliable channel additionally reports **output-triggered suspicion**
//! (§3.3.2, its ref. 12): when a message stays unacknowledged for longer than a
//! threshold, the channel raises [`RcOut::Stuck`] so the *monitoring*
//! component may decide to exclude the silent peer — one of the two
//! suspicion sources the new architecture exploits (§4.2).
//!
//! [`ReliableChannel`] is sans-I/O: callers feed it sends, received packets
//! and clock ticks; it returns the packets to transmit and the messages to
//! deliver. Protocol suites wrap it in a thin kernel component adapter.
//!
//! The [`link`] module adds the live backend's **TCP wire**: a
//! length-prefixed frame codec and [`TcpLink`], over which `gcs-live` in
//! TCP mode moves frames between real OS threads through loopback sockets.
//! (Its default channel mode moves bursts of events between member inboxes
//! directly and frames nothing.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
mod reliable;

pub use link::{encode_frame, FrameDecoder, FrameHeader, TcpLink};
pub use reliable::{Packet, RcConfig, RcOut, ReliableChannel, TICK_INTERVAL};
