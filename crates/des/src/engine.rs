//! The simulation engine: a clock plus an event loop over a [`SimModel`].

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation model: application state plus an event handler.
///
/// The handler receives the current virtual time, the event being delivered,
/// and mutable access to the pending-event queue so it can schedule follow-up
/// events. Scheduling an event in the past is a bug and panics in the engine.
pub trait SimModel {
    /// The event type this model reacts to.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Drives a [`SimModel`] until the event queue drains (or a horizon/step
/// budget is hit).
pub struct Engine<M: SimModel> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    steps: u64,
}

impl<M: SimModel> Engine<M> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Creates an engine at time zero whose queue has room for `cap`
    /// pending events — avoids heap growth mid-run when the caller knows
    /// the event population up front (e.g. one completion event per work
    /// item).
    pub fn with_capacity(model: M, cap: usize) -> Self {
        Engine {
            model,
            queue: EventQueue::with_capacity(cap),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Creates an engine at time zero from a recycled queue. The queue is
    /// [`EventQueue::reset`] first, so the engine behaves exactly as if
    /// built with [`Engine::new`] — only the heap allocation is reused.
    /// Pair with [`Engine::into_parts`] to run many simulations without
    /// reallocating (the fleet executor's per-worker loop does this).
    pub fn with_queue(model: M, mut queue: EventQueue<M::Event>) -> Self {
        queue.reset();
        Engine {
            model,
            queue,
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Consumes the engine, returning the model and the event queue (with
    /// its allocation intact) for reuse via [`Engine::with_queue`].
    pub fn into_parts(self) -> (M, EventQueue<M::Event>) {
        (self.model, self.queue)
    }

    /// Schedules an initial/external event.
    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.schedule(time, event);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "event queue went backwards");
                self.now = t;
                self.steps += 1;
                self.model.handle(t, ev, &mut self.queue);
                // Telemetry is a single relaxed atomic load when
                // disabled; when enabled, the pending-event depth after
                // each delivery becomes the `des.queue_depth` series.
                if haxconn_telemetry::enabled() {
                    haxconn_telemetry::series_record(
                        "des.queue_depth",
                        t.as_ms(),
                        self.queue.len() as f64,
                    );
                    haxconn_telemetry::counter_add("des.events", 1);
                }
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the queue drains or virtual time would exceed `horizon`.
    /// Events strictly after the horizon remain queued.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
        self.now
    }

    /// Runs at most `max_steps` additional events.
    pub fn run_steps(&mut self, max_steps: u64) -> SimTime {
        for _ in 0..max_steps {
            if !self.step() {
                break;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: each `Tick(n)` schedules `Tick(n-1)` one
    /// millisecond later until zero.
    struct Countdown {
        fired: Vec<(f64, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl SimModel for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            let Ev::Tick(n) = event;
            self.fired.push((now.as_ms(), n));
            if n > 0 {
                queue.schedule(now + SimTime::from_ms(1.0), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn run_drains_queue() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::from_ms(0.5), Ev::Tick(3));
        let end = eng.run();
        assert_eq!(end.as_ms(), 3.5);
        assert_eq!(eng.steps(), 4);
        assert_eq!(
            eng.model().fired,
            vec![(0.5, 3), (1.5, 2), (2.5, 1), (3.5, 0)]
        );
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::ZERO, Ev::Tick(10));
        eng.run_until(SimTime::from_ms(2.0));
        assert_eq!(eng.model().fired.len(), 3); // t=0,1,2
                                                // Remaining events still pending.
        assert!(eng.step());
    }

    #[test]
    fn run_steps_budget() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::ZERO, Ev::Tick(100));
        eng.run_steps(5);
        assert_eq!(eng.model().fired.len(), 5);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::from_ms(1.0), Ev::Tick(0));
        eng.run();
        eng.schedule(SimTime::from_ms(0.5), Ev::Tick(0));
    }

    #[test]
    fn queue_reuse_matches_fresh_engine() {
        let trace = |mut eng: Engine<Countdown>| {
            eng.schedule(SimTime::from_ms(0.25), Ev::Tick(5));
            eng.run();
            eng.into_parts()
        };
        let (fresh, queue) = trace(Engine::new(Countdown { fired: vec![] }));
        assert!(queue.is_empty());
        let cap = queue.capacity();
        assert!(cap > 0);
        // Recycle the queue: identical trace, no new allocation needed.
        let (reused, queue2) = trace(Engine::with_queue(Countdown { fired: vec![] }, queue));
        assert_eq!(fresh.fired, reused.fired);
        assert_eq!(queue2.capacity(), cap);
    }

    #[test]
    fn with_capacity_preallocates() {
        let eng = Engine::with_capacity(Countdown { fired: vec![] }, 64);
        assert!(eng.queue.capacity() >= 64);
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = |seed_events: &[(f64, u32)]| {
            let mut eng = Engine::new(Countdown { fired: vec![] });
            for &(t, n) in seed_events {
                eng.schedule(SimTime::from_ms(t), Ev::Tick(n));
            }
            eng.run();
            eng.into_model().fired
        };
        let events = [(0.0, 3), (0.0, 2), (1.0, 1)];
        assert_eq!(trace(&events), trace(&events));
    }
}
