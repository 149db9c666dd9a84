//! Threaded live runtime for `mcpaxos` actors.
//!
//! Runs the same agents as the simulator on real OS threads: each process
//! is a thread with a mailbox, local timers and local storage, and every
//! upcall goes through [`mcpaxos_actor::host`] exactly as it does under
//! the simulator. One logical tick equals one millisecond of wall-clock
//! time, so the default protocol timings (heartbeats every 50 ticks,
//! etc.) translate to sensible live values.
//!
//! There is one way to host processes, a [`TcpNode`]:
//!
//! * Processes spawned on the *same* node reach each other by a direct
//!   mailbox push — reliable, FIFO per link, no socket, no codec. One
//!   node hosting every role *is* the in-process mode: the noise-free
//!   deployment for examples and cross-runtime tests.
//! * Processes on *different* nodes talk loopback/LAN TCP over
//!   `std::net`: length-prefixed CRC-framed messages, one supervised
//!   connection per peer with a bounded drop-oldest send queue,
//!   reconnect under a jittered exponential [`mcpaxos_actor::Backoff`],
//!   and `on_link_reset` delivery on reconnects so delta-shipping
//!   survives peer restarts without `NeedFull` round-trips. Optionally
//!   every outbound link is wrapped in a seeded deterministic fault
//!   injector ([`FaultyTransport`]) for CI chaos tests that never flake.
//!
//! # Example
//!
//! ```
//! use mcpaxos_actor::{Actor, Context, ProcessId, TimerToken};
//! use mcpaxos_runtime::{PeerTable, TcpConfig, TcpNode};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     fn on_message(&mut self, from: ProcessId, m: u32, ctx: &mut dyn Context<u32>) {
//!         if m < 3 {
//!             ctx.send(from, m + 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _t: TimerToken, _c: &mut dyn Context<u32>) {}
//! }
//!
//! let mut node: TcpNode<u32> = TcpNode::bind(PeerTable::shared(), TcpConfig::default()).unwrap();
//! node.spawn(ProcessId(0), Box::new(Echo));
//! node.spawn(ProcessId(1), Box::new(Echo));
//! node.send(ProcessId(0), ProcessId(1), 0);
//! std::thread::sleep(std::time::Duration::from_millis(50));
//! node.stop();
//! ```

mod fault;
mod process;
mod tcp;

pub use fault::{FaultAction, FaultConfig, FaultyTransport};
pub use process::{
    LiveByteMeter, SendActor, SendableActor, METRIC_SEND_FAILURES, METRIC_WIRE_BYTES,
    METRIC_WIRE_MSGS,
};
pub use tcp::{
    framed_size_of, PeerTable, TcpConfig, TcpNode, DATA_HEADER_BYTES, METRIC_TCP_FRAMES,
    METRIC_TCP_FRAME_BYTES, METRIC_TCP_FRAME_ERRORS, METRIC_TCP_LINK_RESETS,
    METRIC_TCP_QUEUE_DEPTH, METRIC_TCP_QUEUE_DROPS, METRIC_TCP_RECONNECTS,
};
