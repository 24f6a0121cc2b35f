//! The traced run's per-layer split: an [`EventHandler`] that wraps a
//! [`NetWorld`] and times every event it forwards.
//!
//! The wrapper reads the clock twice per event, around the forwarded
//! call, and files the interval under the layer that handles the event.
//! Whatever the traced `run_until` spends outside those intervals is the
//! engine's own time (pop, push, cascade): `simkit.self_s`.

use netsim::fabric::NetEvent;
use netsim::{NetLogic, NetWorld};
use simkit::engine::{EventContext, EventHandler};
use simkit::{SimTime, Simulator};
use std::time::Instant;

/// The layer an event is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A packet reaching a host (one-port node): the transport layer.
    ArriveHost,
    /// A packet reaching a switch: routing plus the fabric send.
    ArriveTor,
    /// A port finished serializing: the fabric drains its queue.
    PortFree,
    /// A PFC pause or resume frame.
    Pause,
    /// Flow injection (including the bootstrap timer, token 0).
    FlowArrival,
    /// A transport pacer or retransmission timer.
    TransportTimer,
    /// Rotor slice machinery: slice boundary and dark period.
    Slice,
    /// RotorLB feeder tick.
    Feeder,
    /// Any other timer (hello checks).
    OtherTimer,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 9;

// Timer tokens carry their kind in the top byte, as documented by the
// `opera` crate's token module (which is private to that crate).
const K_ARRIVAL: u64 = 1;
const K_PACER: u64 = 2;
const K_RTO: u64 = 3;
const K_SLICE: u64 = 4;
const K_DARK: u64 = 5;
const K_FEEDER: u64 = 6;

/// Calls and summed host time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Events forwarded.
    pub calls: u64,
    /// Host seconds inside the forwarded calls.
    pub secs: f64,
}

/// A [`NetWorld`] whose events are timed per [`Kind`].
pub struct Traced<L: NetLogic> {
    /// The wrapped world.
    pub inner: NetWorld<L>,
    /// Per-kind spans, indexed by `Kind as usize`.
    pub spans: [Span; KINDS],
    /// Retransmission timers among the transport timers.
    pub rto_calls: u64,
}

impl<L: NetLogic> Traced<L> {
    /// Wrap `world` in a fresh simulator with the same bootstrap event
    /// [`NetWorld::into_sim`] schedules.
    pub fn into_sim(world: NetWorld<L>) -> Simulator<Self> {
        let mut sim = Simulator::new(Traced {
            inner: world,
            spans: [Span::default(); KINDS],
            rto_calls: 0,
        });
        sim.schedule_at(SimTime::ZERO, NetEvent::Timer { token: 0 });
        sim
    }

    /// Host seconds inside all forwarded calls.
    pub fn handler_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.secs).sum()
    }

    fn classify(&mut self, ev: &NetEvent) -> Kind {
        match *ev {
            NetEvent::Arrive { node, .. } if self.inner.fabric.port_count(node) == 1 => {
                Kind::ArriveHost
            }
            NetEvent::Arrive { .. } => Kind::ArriveTor,
            NetEvent::PortFree { .. } => Kind::PortFree,
            NetEvent::PauseChange { .. } => Kind::Pause,
            NetEvent::Timer { token: 0 } => Kind::FlowArrival,
            NetEvent::Timer { token } => match token >> 56 {
                K_ARRIVAL => Kind::FlowArrival,
                K_PACER => Kind::TransportTimer,
                K_RTO => {
                    self.rto_calls += 1;
                    Kind::TransportTimer
                }
                K_SLICE | K_DARK => Kind::Slice,
                K_FEEDER => Kind::Feeder,
                _ => Kind::OtherTimer,
            },
        }
    }
}

impl<L: NetLogic> EventHandler for Traced<L> {
    type Event = NetEvent;

    fn handle_event(&mut self, ev: NetEvent, ctx: &mut EventContext<'_, NetEvent>) {
        let kind = self.classify(&ev);
        let t0 = Instant::now();
        self.inner.handle_event(ev, ctx);
        let span = &mut self.spans[kind as usize];
        span.secs += t0.elapsed().as_secs_f64();
        span.calls += 1;
    }
}
