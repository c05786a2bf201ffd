//! The span/event recorder: a causal, time-ordered view of where rounds,
//! sweeps and requests go, complementing the [`metrics`](crate::metrics)
//! registry's aggregates.
//!
//! One process-wide recorder is installed with [`install`] (or
//! [`install_at`] to share an epoch `Instant` with other uptime clocks).
//! While installed, instrumented code records three kinds of events into
//! **per-thread bounded ring buffers**:
//!
//! * [`span`] — a scoped `Begin`/`End` pair bracketing a region (sweep,
//!   session slice, verb, connection); the guard ends the span on drop;
//! * [`span_at`] — a completed span recorded after the fact from two
//!   `Instant`s (a round that was timed anyway by the profiler);
//! * [`instant`] — a point event (fault firing, checkpoint
//!   write, eviction, restore, warn/error log line).
//!
//! Span ids form a per-thread hierarchy — each event records the id of the
//! span open on its thread when it was pushed, so a drained trace
//! reconstructs session → phase → round nesting. Timestamps are monotonic
//! microseconds since the recorder's epoch. When a thread's ring buffer is
//! full the **oldest** event is dropped and counted; [`dropped`] exposes
//! the total so servers can surface it as a metric.
//!
//! The disabled path is one relaxed atomic load per call site — no clock
//! read, no allocation, no lock. Like everything in this crate, tracing is
//! out-of-band by contract: recording never feeds back into elections,
//! scheduling, or any byte-deterministic output.
//!
//! [`drain`] snapshots and clears the buffers into a [`Trace`], which
//! exports as Chrome trace-event JSON ([`Trace::to_chrome_json`], loadable
//! in Perfetto or `chrome://tracing`) or folded-stack lines
//! ([`Trace::to_folded`], the input format of flamegraph tooling). Both
//! exporters repair truncation damage first: an `End` whose `Begin` was
//! dropped by the ring is discarded, and a span still open at drain time is
//! closed at the trace's last timestamp.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::logging::Level;

/// Default per-thread ring capacity (events), sized so a full election run
/// of a 10k-particle scenario fits without drops.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// What one [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph:"B"` in Chrome trace JSON).
    Begin,
    /// A span closed (`ph:"E"`).
    End,
    /// A point event (`ph:"i"`).
    Instant,
}

/// One recorded event. Fields are public so tests and exporters can build
/// and inspect traces directly; instrumented code goes through [`span`],
/// [`span_at`] and [`instant`] instead.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global push order — a total order consistent with each thread's
    /// local order (used to merge the per-thread rings deterministically).
    pub seq: u64,
    /// Microseconds since the recorder's epoch; monotone per thread.
    pub ts_us: u64,
    /// Begin, End, or Instant.
    pub kind: EventKind,
    /// A low-cardinality grouping key (`"round"`, `"scheduler"`, `"verb"`,
    /// `"fault"`, `"log"`, …).
    pub cat: &'static str,
    /// The event name shown in trace viewers and folded stacks.
    pub name: Cow<'static, str>,
    /// Recorder-assigned thread id (dense, starting at 1).
    pub tid: u64,
    /// Span id for Begin/End pairs; 0 for instants.
    pub id: u64,
    /// Id of the span open on this thread when the event was pushed; 0 at
    /// top level.
    pub parent: u64,
}

/// One thread's bounded ring. The mutex is uncontended in steady state —
/// the owning thread pushes; other threads touch it only at drain.
struct ThreadBuffer {
    tid: u64,
    events: Mutex<VecDeque<TraceEvent>>,
}

/// The installed recorder: epoch, id wells, and the thread-buffer registry.
struct Recorder {
    epoch: Instant,
    capacity: usize,
    generation: u64,
    next_tid: AtomicU64,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
}

/// The fast gate every call site checks first: one relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Bumped on every install/uninstall so stale thread-local buffers and span
/// guards from a previous recorder never write into the current one.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// The recorder itself; the mutex guards installation, not recording.
static RECORDER: Mutex<Option<Arc<Recorder>>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            generation: 0,
            recorder: None,
            buffer: None,
            stack: Vec::new(),
        })
    };
}

/// Per-thread recording state: the cached recorder and registered ring
/// (revalidated against [`GENERATION`] with one relaxed load, so steady-
/// state recording never touches the global mutex) plus the open-span
/// stack that parents new events.
struct Local {
    generation: u64,
    recorder: Option<Arc<Recorder>>,
    buffer: Option<Arc<ThreadBuffer>>,
    stack: Vec<u64>,
}

/// Installs a process-wide recorder with per-thread rings of `capacity`
/// events and an epoch of "now". Returns `false` (and changes nothing) if
/// a recorder is already installed.
pub fn install(capacity: usize) -> bool {
    install_at(capacity, Instant::now())
}

/// Like [`install`], with an explicit epoch `Instant` — pass the server's
/// start instant so trace timestamps, `/stats` uptime and scrape ages all
/// share one time base.
pub fn install_at(capacity: usize, epoch: Instant) -> bool {
    let mut slot = lock_recorder();
    if slot.is_some() {
        return false;
    }
    let generation = GENERATION.fetch_add(1, Ordering::SeqCst) + 1;
    *slot = Some(Arc::new(Recorder {
        epoch,
        capacity: capacity.max(2),
        generation,
        next_tid: AtomicU64::new(1),
        next_span: AtomicU64::new(1),
        next_seq: AtomicU64::new(1),
        dropped: AtomicU64::new(0),
        threads: Mutex::new(Vec::new()),
    }));
    ACTIVE.store(true, Ordering::SeqCst);
    true
}

/// Uninstalls the recorder, returning everything it still held (`None` if
/// none was installed). Guards from the old recorder become inert.
pub fn uninstall() -> Option<Trace> {
    let recorder = {
        let mut slot = lock_recorder();
        ACTIVE.store(false, Ordering::SeqCst);
        GENERATION.fetch_add(1, Ordering::SeqCst);
        slot.take()?
    };
    Some(collect(&recorder))
}

/// Whether a recorder is installed and recording — the call sites' fast
/// path, and the gate callers use before building owned event names.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Pauses or resumes recording without uninstalling (benchmarks toggle
/// this between paired reps). Returns `false` if no recorder is installed.
pub fn set_enabled(active: bool) -> bool {
    let slot = lock_recorder();
    if slot.is_none() {
        return false;
    }
    ACTIVE.store(active, Ordering::SeqCst);
    true
}

/// Total events dropped so far by full rings (0 if no recorder).
pub fn dropped() -> u64 {
    lock_recorder()
        .as_ref()
        .map_or(0, |r| r.dropped.load(Ordering::Relaxed))
}

/// The installed recorder's epoch, if any.
pub fn epoch() -> Option<Instant> {
    lock_recorder().as_ref().map(|r| r.epoch)
}

/// Snapshots and clears every thread ring into a [`Trace`] (empty if no
/// recorder is installed). Recording continues; spans still open keep
/// their ids, so a later drain can still pair their `End` events — the
/// exporters treat the unmatched halves gracefully either way.
pub fn drain() -> Trace {
    let recorder = {
        let slot = lock_recorder();
        match slot.as_ref() {
            Some(recorder) => Arc::clone(recorder),
            None => return Trace::default(),
        }
    };
    collect(&recorder)
}

/// Opens a span; the returned guard ends it on drop. When no recorder is
/// active this is one atomic load and the guard is inert. Build owned
/// names (`format!`) behind an [`enabled`] check to keep the disabled path
/// allocation-free.
#[must_use = "the span ends when the guard drops"]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let name = name.into();
    let mut guard = SpanGuard::inert();
    with_recorder(|recorder, local, tid| {
        let id = recorder.next_span.fetch_add(1, Ordering::Relaxed);
        let ts_us = micros_since(recorder.epoch, Instant::now());
        let parent = local.stack.last().copied().unwrap_or(0);
        push(
            recorder,
            local,
            TraceEvent {
                seq: 0,
                ts_us,
                kind: EventKind::Begin,
                cat,
                name: name.clone(),
                tid,
                id,
                parent,
            },
        );
        local.stack.push(id);
        guard = SpanGuard {
            id,
            cat,
            name,
            generation: recorder.generation,
        };
    });
    guard
}

/// Records a completed span from two instants already in hand (the
/// profiler's step timing), parented under the thread's open span. Both
/// events are pushed now, so call this only for regions that did not
/// outlive the enclosing guard.
pub fn span_at(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    start: Instant,
    end: Instant,
) {
    if !enabled() {
        return;
    }
    let name = name.into();
    with_recorder(|recorder, local, tid| {
        let id = recorder.next_span.fetch_add(1, Ordering::Relaxed);
        let begin_us = micros_since(recorder.epoch, start);
        let end_us = micros_since(recorder.epoch, end).max(begin_us);
        let parent = local.stack.last().copied().unwrap_or(0);
        push(
            recorder,
            local,
            TraceEvent {
                seq: 0,
                ts_us: begin_us,
                kind: EventKind::Begin,
                cat,
                name: name.clone(),
                tid,
                id,
                parent,
            },
        );
        push(
            recorder,
            local,
            TraceEvent {
                seq: 0,
                ts_us: end_us,
                kind: EventKind::End,
                cat,
                name,
                tid,
                id,
                parent,
            },
        );
    });
}

/// Records a point event, parented under the thread's open span.
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    if !enabled() {
        return;
    }
    let name = name.into();
    with_recorder(|recorder, local, tid| {
        let ts_us = micros_since(recorder.epoch, Instant::now());
        let parent = local.stack.last().copied().unwrap_or(0);
        push(
            recorder,
            local,
            TraceEvent {
                seq: 0,
                ts_us,
                kind: EventKind::Instant,
                cat,
                name,
                tid,
                id: 0,
                parent,
            },
        );
    });
}

/// The logging facade's bridge: a `warn!`/`error!` line becomes an instant
/// event so logs land on the same timeline as spans. The message was
/// already formatted for the log line; this only concatenates, and only
/// when a recorder is active.
pub(crate) fn log_event(level: Level, target: &str, msg: &str) {
    if !enabled() {
        return;
    }
    instant("log", format!("{} {target}: {msg}", level.as_upper()));
}

/// Ends its span on drop. Inert (and free) when tracing was disabled at
/// creation or the recorder changed since.
pub struct SpanGuard {
    id: u64,
    cat: &'static str,
    name: Cow<'static, str>,
    generation: u64,
}

impl SpanGuard {
    fn inert() -> SpanGuard {
        SpanGuard {
            id: 0,
            cat: "",
            name: Cow::Borrowed(""),
            generation: 0,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let generation = self.generation;
        let id = self.id;
        let cat = self.cat;
        let name = std::mem::replace(&mut self.name, Cow::Borrowed(""));
        with_recorder(move |recorder, local, tid| {
            if recorder.generation != generation {
                return;
            }
            let ts_us = micros_since(recorder.epoch, Instant::now());
            // Unwind to this span: inner guards leaked or dropped out of
            // order must not corrupt the parent chain for later events.
            if let Some(at) = local.stack.iter().rposition(|open| *open == id) {
                local.stack.truncate(at);
            }
            let parent = local.stack.last().copied().unwrap_or(0);
            push(
                recorder,
                local,
                TraceEvent {
                    seq: 0,
                    ts_us,
                    kind: EventKind::End,
                    cat,
                    name,
                    tid,
                    id,
                    parent,
                },
            );
        });
    }
}

fn lock_recorder() -> std::sync::MutexGuard<'static, Option<Arc<Recorder>>> {
    RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Saturating microseconds from `epoch` to `at` (0 if `at` predates it).
fn micros_since(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// Runs `f` with the current recorder and this thread's registered ring.
/// Steady state costs one relaxed [`GENERATION`] load plus the
/// thread-local access; the global mutex is taken only when the recorder
/// changed since this thread last recorded (then the thread registers a
/// fresh ring and clears its span stack). A no-op when no recorder is
/// installed.
fn with_recorder(f: impl FnOnce(&Recorder, &mut Local, u64)) {
    LOCAL.with(|cell| {
        let Ok(mut local) = cell.try_borrow_mut() else {
            // Re-entrant recording (an instrumented callee inside a
            // recording callback) is silently skipped.
            return;
        };
        let generation = GENERATION.load(Ordering::Relaxed);
        if local.generation != generation || local.recorder.is_none() {
            let recorder = lock_recorder().as_ref().map(Arc::clone);
            local.stack.clear();
            match recorder {
                Some(recorder) => {
                    let tid = recorder.next_tid.fetch_add(1, Ordering::Relaxed);
                    let buffer = Arc::new(ThreadBuffer {
                        tid,
                        events: Mutex::new(VecDeque::with_capacity(recorder.capacity.min(1024))),
                    });
                    recorder
                        .threads
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .push(Arc::clone(&buffer));
                    local.generation = recorder.generation;
                    local.recorder = Some(recorder);
                    local.buffer = Some(buffer);
                }
                None => {
                    local.generation = generation;
                    local.recorder = None;
                    local.buffer = None;
                    return;
                }
            }
        }
        let Some(recorder) = local.recorder.as_ref().map(Arc::clone) else {
            return;
        };
        let tid = local.buffer.as_ref().map_or(0, |b| b.tid);
        f(&recorder, &mut local, tid);
    });
}

/// Pushes one event into the thread's ring, dropping the oldest event (and
/// counting the drop) when full.
fn push(recorder: &Recorder, local: &mut Local, mut event: TraceEvent) {
    let Some(buffer) = local.buffer.as_ref() else {
        return;
    };
    event.seq = recorder.next_seq.fetch_add(1, Ordering::Relaxed);
    let mut events = buffer
        .events
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if events.len() >= recorder.capacity {
        events.pop_front();
        recorder.dropped.fetch_add(1, Ordering::Relaxed);
    }
    events.push_back(event);
}

/// Merges and clears every thread ring, sorted by global push order.
fn collect(recorder: &Recorder) -> Trace {
    let threads = recorder
        .threads
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut events = Vec::new();
    for buffer in threads.iter() {
        let mut ring = buffer
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        events.extend(ring.drain(..));
    }
    events.sort_by_key(|e| e.seq);
    Trace {
        events,
        dropped: recorder.dropped.load(Ordering::Relaxed),
    }
}

/// A drained snapshot of the recorder: merged events plus the cumulative
/// ring-drop count at drain time.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in global push order (per-thread timestamp order within).
    pub events: Vec<TraceEvent>,
    /// Events the rings dropped (oldest-first) over the recorder's
    /// lifetime, up to this drain.
    pub dropped: u64,
}

impl Trace {
    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A balanced per-thread copy of the events: `End`s whose `Begin` fell
    /// off the ring are discarded, and spans still open at the end are
    /// closed at the trace's final timestamp — so every `Begin` pairs with
    /// exactly one later `End` on the same thread, LIFO-nested.
    fn balanced(&self) -> Vec<TraceEvent> {
        let last_ts = self.events.iter().map(|e| e.ts_us).max().unwrap_or(0);
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut out = Vec::with_capacity(self.events.len());
        for tid in tids {
            let mut open: Vec<TraceEvent> = Vec::new();
            for event in self.events.iter().filter(|e| e.tid == tid) {
                match event.kind {
                    EventKind::Begin => {
                        open.push(event.clone());
                        out.push(event.clone());
                    }
                    EventKind::End => {
                        // Close every span opened after the one this End
                        // belongs to (their Ends were lost to the ring),
                        // then the span itself; orphaned Ends are dropped.
                        if let Some(at) = open.iter().rposition(|b| b.id == event.id) {
                            while open.len() > at + 1 {
                                let begin = open.pop().expect("len > at+1");
                                out.push(end_of(&begin, event.ts_us));
                            }
                            open.pop();
                            out.push(event.clone());
                        }
                    }
                    EventKind::Instant => out.push(event.clone()),
                }
            }
            while let Some(begin) = open.pop() {
                out.push(end_of(&begin, last_ts));
            }
        }
        out
    }

    /// Renders the trace as Chrome trace-event JSON — load the result in
    /// Perfetto or `chrome://tracing`. Structurally valid by construction:
    /// every `B` has a matching later `E` on its thread and per-thread
    /// timestamps are monotone.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, event) in self.balanced().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = match event.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Instant => "i",
            };
            out.push_str("{\"name\":\"");
            escape_into(&event.name, &mut out);
            out.push_str("\",\"cat\":\"");
            escape_into(event.cat, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                event.ts_us, event.tid
            );
            if event.kind == EventKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if event.id != 0 || event.parent != 0 {
                let _ = write!(
                    out,
                    ",\"args\":{{\"span\":{},\"parent\":{}}}",
                    event.id, event.parent
                );
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Renders the trace as folded-stack lines (`a;b;c <self-µs>`), the
    /// input format of flamegraph tooling. Each span's *self* time (its
    /// duration minus its children's) is charged to its full stack path;
    /// identical paths across threads merge. Instants contribute nothing.
    pub fn to_folded(&self) -> String {
        use std::collections::BTreeMap;
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let balanced = self.balanced();
        let mut tids: Vec<u64> = balanced.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            // (name, start, child time) per open span.
            let mut stack: Vec<(String, u64, u64)> = Vec::new();
            for event in balanced.iter().filter(|e| e.tid == tid) {
                match event.kind {
                    EventKind::Begin => stack.push((event.name.to_string(), event.ts_us, 0)),
                    EventKind::End => {
                        let Some((name, start, child_us)) = stack.pop() else {
                            continue;
                        };
                        let total = event.ts_us.saturating_sub(start);
                        let self_us = total.saturating_sub(child_us);
                        if let Some((_, _, parent_child)) = stack.last_mut() {
                            *parent_child += total;
                        }
                        let mut path = String::new();
                        for (frame, _, _) in &stack {
                            path.push_str(frame);
                            path.push(';');
                        }
                        path.push_str(&name);
                        *folded.entry(path).or_insert(0) += self_us;
                    }
                    EventKind::Instant => {}
                }
            }
        }
        let mut out = String::new();
        for (path, self_us) in folded {
            let _ = writeln!(out, "{path} {self_us}");
        }
        out
    }
}

/// The synthesized `End` closing `begin` at `ts_us`.
fn end_of(begin: &TraceEvent, ts_us: u64) -> TraceEvent {
    TraceEvent {
        kind: EventKind::End,
        ts_us: ts_us.max(begin.ts_us),
        ..begin.clone()
    }
}

/// Minimal JSON string escaping, matching the logging facade's.
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event with only the fields the exporters look at.
    fn event(
        seq: u64,
        ts_us: u64,
        kind: EventKind,
        name: &'static str,
        tid: u64,
        id: u64,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            ts_us,
            kind,
            cat: "test",
            name: Cow::Borrowed(name),
            tid,
            id,
            parent: 0,
        }
    }

    #[test]
    fn folded_charges_self_time_per_stack_path() {
        // A(0..100) > B(10..30), C(40..80) > D(50..60).
        let trace = Trace {
            events: vec![
                event(1, 0, EventKind::Begin, "A", 1, 1),
                event(2, 10, EventKind::Begin, "B", 1, 2),
                event(3, 30, EventKind::End, "B", 1, 2),
                event(4, 40, EventKind::Begin, "C", 1, 3),
                event(5, 50, EventKind::Begin, "D", 1, 4),
                event(6, 60, EventKind::End, "D", 1, 4),
                event(7, 80, EventKind::End, "C", 1, 3),
                event(8, 100, EventKind::End, "A", 1, 1),
            ],
            dropped: 0,
        };
        assert_eq!(trace.to_folded(), "A 40\nA;B 20\nA;C 30\nA;C;D 10\n");
    }

    #[test]
    fn balancing_drops_orphan_ends_and_closes_open_begins() {
        let trace = Trace {
            events: vec![
                // Orphan End: its Begin fell off the ring.
                event(1, 5, EventKind::End, "lost", 1, 9),
                event(2, 10, EventKind::Begin, "open", 1, 1),
                event(3, 20, EventKind::Instant, "mark", 1, 0),
            ],
            dropped: 1,
        };
        let balanced = trace.balanced();
        let kinds: Vec<EventKind> = balanced.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::Begin, EventKind::Instant, EventKind::End],
            "orphan End discarded, open Begin closed at trace end"
        );
        assert_eq!(balanced[2].ts_us, 20, "closed at the last timestamp");
    }

    #[test]
    fn interleaved_loss_closes_inner_spans_before_the_outer_end() {
        // outer(0..) > inner(10..) whose End was lost; outer's End at 50
        // must force inner closed first to keep LIFO nesting.
        let trace = Trace {
            events: vec![
                event(1, 0, EventKind::Begin, "outer", 1, 1),
                event(2, 10, EventKind::Begin, "inner", 1, 2),
                event(3, 50, EventKind::End, "outer", 1, 1),
            ],
            dropped: 1,
        };
        let balanced = trace.balanced();
        let order: Vec<(&str, EventKind)> =
            balanced.iter().map(|e| (e.name.as_ref(), e.kind)).collect();
        assert_eq!(
            order,
            [
                ("outer", EventKind::Begin),
                ("inner", EventKind::Begin),
                ("inner", EventKind::End),
                ("outer", EventKind::End),
            ]
        );
    }

    #[test]
    fn chrome_json_escapes_names_and_reports_drops() {
        let trace = Trace {
            events: vec![event(1, 3, EventKind::Instant, "say \"hi\"", 2, 0)],
            dropped: 7,
        };
        let json = trace.to_chrome_json();
        assert!(json.contains("\"name\":\"say \\\"hi\\\"\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.ends_with("\"otherData\":{\"dropped\":7}}"));
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(
            trace.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":0}}"
        );
        assert_eq!(trace.to_folded(), "");
    }
}
