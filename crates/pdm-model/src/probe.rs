//! The structured probe: a step-clocked event stream for observability.
//!
//! Every claim the paper makes is a *counted* quantity — passes, parallel
//! steps, peak residency, fallback probability — and the aggregate
//! [`crate::stats::IoStats`] totals compress all of it into a handful of
//! numbers. The probe keeps the uncompressed story: one [`ProbeEvent`] per
//! I/O batch (with per-disk multiplicities, phase membership, and group
//! membership), phase boundaries with memory gauges sampled from
//! [`crate::mem::MemTracker`], I/O-group open/close with the deferred step
//! charge, and named scalar gauges (cleanup carry occupancy, boundary
//! margins, …) emitted by higher layers.
//!
//! The stream is **replayable**: [`replay`] folds the events back into the
//! aggregate counters, and the two must agree exactly — that equivalence is
//! asserted in the backend tests, so the probe can never drift from the
//! cost model it observes.
//!
//! The probe is default-off and costs one `Option` branch per recorded
//! batch when disabled. `pdmsort sort --stats` writes the events as JSON
//! Lines inside its run artifact; phase labels are interned — `Io` events
//! carry a phase *index*, defined by the order of `PhaseBegin` events in
//! the stream, so a dumped stream is self-describing without repeating
//! strings per batch. [`sparkline`] renders the `Io` events' stripe
//! efficiency over time.

/// One structured observation. `step` is the running parallel-step clock
/// (read + write steps charged so far) *after* the event took effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeEvent {
    /// One I/O batch. `steps` is what the batch was charged at record time —
    /// zero while an I/O group is open (the group settles the cost later).
    Io {
        /// Step clock after this batch.
        step: u64,
        /// Write batch (vs read).
        write: bool,
        /// Blocks moved.
        blocks: u64,
        /// Parallel steps charged now (0 if deferred into a group).
        steps: u64,
        /// Per-disk block multiplicities (length `D`).
        per_disk: Vec<u64>,
        /// Index of the open phase (k-th `PhaseBegin` in the stream).
        phase: Option<u32>,
        /// Id of the open I/O group, if any.
        group: Option<u64>,
    },
    /// A named phase opened; defines phase index `id`.
    PhaseBegin {
        /// Step clock at open.
        step: u64,
        /// Phase index (dense, in stream order).
        id: u32,
        /// Phase label.
        name: String,
        /// Internal-memory residency (keys) sampled at the boundary.
        mem_current: u64,
        /// Running high-water residency at the boundary.
        mem_peak: u64,
    },
    /// The open phase closed.
    PhaseEnd {
        /// Step clock at close (after any group settlement).
        step: u64,
        /// Phase index being closed.
        id: u32,
        /// Residency sampled at close.
        mem_current: u64,
        /// Running high-water residency at close.
        mem_peak: u64,
    },
    /// An I/O scheduling group opened; batches defer their step cost.
    GroupBegin {
        /// Step clock at open.
        step: u64,
        /// Group id (monotone per machine).
        id: u64,
    },
    /// A group charged its deferred cost: `max(per-disk blocks)` each way.
    /// Emitted both at `end_group` and when a phase boundary settles an
    /// open group early (the group then continues under a fresh id).
    GroupEnd {
        /// Step clock after the charge.
        step: u64,
        /// Group id being settled.
        id: u64,
        /// Deferred read steps charged.
        read_steps: u64,
        /// Deferred write steps charged.
        write_steps: u64,
    },
    /// An overlapped (asynchronous) I/O batch was issued. The matching
    /// accounting lives in the `Io` event recorded at the same step —
    /// overlap charges step costs at issue time — so this pair only adds
    /// the *identity* needed to measure latency hiding: a completion with
    /// the same `id` follows when the batch is retired.
    OverlapIssue {
        /// Step clock at issue (after the batch's charge).
        step: u64,
        /// Write batch (vs read).
        write: bool,
        /// Blocks in flight.
        blocks: u64,
        /// Token id pairing this issue with its completion.
        id: u64,
    },
    /// An overlapped batch retired. `stalled` records whether the consumer
    /// had to wait (the data was not yet resident) — the per-event form of
    /// the [`crate::stats::OverlapCounters`] hit/stall split.
    OverlapComplete {
        /// Step clock at retirement (overlap completion charges no steps).
        step: u64,
        /// Write batch (vs read).
        write: bool,
        /// Token id pairing this completion with its issue.
        id: u64,
        /// Whether retiring the batch had to block.
        stalled: bool,
    },
    /// A named scalar gauge from a higher layer (e.g. `cleaner.margin`).
    Gauge {
        /// Step clock when sampled.
        step: u64,
        /// Gauge name.
        name: String,
        /// Sampled value (signed: margins may go negative).
        value: i64,
        /// Phase open when sampled.
        phase: Option<u32>,
    },
}

/// The event recorder embedded in [`crate::stats::IoStats`] when enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Probe {
    events: Vec<ProbeEvent>,
    cap: usize,
    /// Events discarded after the cap was reached.
    pub dropped: u64,
    step: u64,
    phase_names: Vec<String>,
    current_phase: Option<u32>,
    open_group: Option<u64>,
    next_group: u64,
}

impl Probe {
    /// A probe retaining at most `cap` events (further events are counted
    /// in [`Probe::dropped`] but not stored).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            ..Self::default()
        }
    }

    /// Recorded events, in order.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Phase labels, indexed by the `phase` field of [`ProbeEvent::Io`].
    pub fn phase_names(&self) -> &[String] {
        &self.phase_names
    }

    /// The running parallel-step clock.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The configured event cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The recorded events, consuming the probe.
    pub fn into_events(self) -> Vec<ProbeEvent> {
        self.events
    }

    fn push(&mut self, ev: ProbeEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn on_batch(&mut self, write: bool, blocks: u64, steps: u64, per_disk: &[u64]) {
        self.step += steps;
        let ev = ProbeEvent::Io {
            step: self.step,
            write,
            blocks,
            steps,
            per_disk: per_disk.to_vec(),
            phase: self.current_phase,
            group: self.open_group,
        };
        self.push(ev);
    }

    pub(crate) fn on_phase_begin(&mut self, name: &str, mem_current: u64, mem_peak: u64) {
        let id = self.phase_names.len() as u32;
        self.phase_names.push(name.to_string());
        self.current_phase = Some(id);
        let ev = ProbeEvent::PhaseBegin {
            step: self.step,
            id,
            name: name.to_string(),
            mem_current,
            mem_peak,
        };
        self.push(ev);
    }

    pub(crate) fn on_phase_end(&mut self, mem_current: u64, mem_peak: u64) {
        if let Some(id) = self.current_phase.take() {
            let ev = ProbeEvent::PhaseEnd {
                step: self.step,
                id,
                mem_current,
                mem_peak,
            };
            self.push(ev);
        }
    }

    pub(crate) fn on_group_begin(&mut self) {
        let id = self.next_group;
        self.next_group += 1;
        self.open_group = Some(id);
        let ev = ProbeEvent::GroupBegin {
            step: self.step,
            id,
        };
        self.push(ev);
    }

    /// Settle the open group's deferred charge. When `reopen` is true the
    /// group logically continues (a phase boundary split it), so a fresh
    /// `GroupBegin` follows immediately.
    pub(crate) fn on_group_settle(&mut self, read_steps: u64, write_steps: u64, reopen: bool) {
        let Some(id) = self.open_group.take() else {
            return;
        };
        self.step += read_steps + write_steps;
        let ev = ProbeEvent::GroupEnd {
            step: self.step,
            id,
            read_steps,
            write_steps,
        };
        self.push(ev);
        if reopen {
            self.on_group_begin();
        }
    }

    pub(crate) fn on_overlap_issue(&mut self, write: bool, blocks: u64, id: u64) {
        let ev = ProbeEvent::OverlapIssue {
            step: self.step,
            write,
            blocks,
            id,
        };
        self.push(ev);
    }

    pub(crate) fn on_overlap_complete(&mut self, write: bool, id: u64, stalled: bool) {
        let ev = ProbeEvent::OverlapComplete {
            step: self.step,
            write,
            id,
            stalled,
        };
        self.push(ev);
    }

    pub(crate) fn on_gauge(&mut self, name: &str, value: i64) {
        let ev = ProbeEvent::Gauge {
            step: self.step,
            name: name.to_string(),
            value,
            phase: self.current_phase,
        };
        self.push(ev);
    }
}

/// Per-phase counters reconstructed by [`replay`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayedPhase {
    /// Phase label (from its `PhaseBegin`).
    pub name: String,
    /// Blocks read while the phase was open.
    pub blocks_read: u64,
    /// Blocks written while the phase was open.
    pub blocks_written: u64,
    /// Read steps charged while the phase was open.
    pub read_steps: u64,
    /// Write steps charged while the phase was open.
    pub write_steps: u64,
}

/// Aggregate counters reconstructed from an event stream by [`replay`].
///
/// If no events were dropped, these must equal the [`crate::stats::IoStats`]
/// totals of the run that produced the stream — the probe is a lossless
/// refinement of the aggregate accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayedStats {
    /// Total blocks read.
    pub blocks_read: u64,
    /// Total blocks written.
    pub blocks_written: u64,
    /// Total parallel read steps.
    pub read_steps: u64,
    /// Total parallel write steps.
    pub write_steps: u64,
    /// Per-disk read counts.
    pub per_disk_reads: Vec<u64>,
    /// Per-disk write counts.
    pub per_disk_writes: Vec<u64>,
    /// Completed phases, in order.
    pub phases: Vec<ReplayedPhase>,
}

/// Fold an event stream back into aggregate counters.
///
/// Group settlements (`GroupEnd`) are attributed to the phase open at the
/// settlement point — exactly the attribution rule the live accounting
/// uses, so a replayed stream reproduces `IoStats` phase-for-phase.
pub fn replay(events: &[ProbeEvent], num_disks: usize) -> ReplayedStats {
    let mut out = ReplayedStats {
        per_disk_reads: vec![0; num_disks],
        per_disk_writes: vec![0; num_disks],
        ..ReplayedStats::default()
    };
    // phases currently open (at most one) + completed, keyed by id
    let mut open: Option<(u32, ReplayedPhase)> = None;
    for ev in events {
        match ev {
            ProbeEvent::Io {
                write,
                blocks,
                steps,
                per_disk,
                ..
            } => {
                type PhaseField = fn(&mut ReplayedPhase) -> &mut u64;
                let (total, per, steps_total, phase_blocks, phase_steps): (
                    &mut u64,
                    &mut Vec<u64>,
                    &mut u64,
                    PhaseField,
                    PhaseField,
                ) = if *write {
                    (
                        &mut out.blocks_written,
                        &mut out.per_disk_writes,
                        &mut out.write_steps,
                        |p| &mut p.blocks_written,
                        |p| &mut p.write_steps,
                    )
                } else {
                    (
                        &mut out.blocks_read,
                        &mut out.per_disk_reads,
                        &mut out.read_steps,
                        |p| &mut p.blocks_read,
                        |p| &mut p.read_steps,
                    )
                };
                *total += blocks;
                *steps_total += steps;
                for (acc, c) in per.iter_mut().zip(per_disk) {
                    *acc += c;
                }
                if let Some((_, p)) = &mut open {
                    *phase_blocks(p) += blocks;
                    *phase_steps(p) += steps;
                }
            }
            ProbeEvent::PhaseBegin { id, name, .. } => {
                if let Some((_, p)) = open.take() {
                    out.phases.push(p);
                }
                open = Some((
                    *id,
                    ReplayedPhase {
                        name: name.clone(),
                        ..ReplayedPhase::default()
                    },
                ));
            }
            ProbeEvent::PhaseEnd { id, .. } => {
                if let Some((open_id, p)) = open.take() {
                    debug_assert_eq!(open_id, *id, "phase end out of order");
                    out.phases.push(p);
                }
            }
            ProbeEvent::GroupEnd {
                read_steps,
                write_steps,
                ..
            } => {
                out.read_steps += read_steps;
                out.write_steps += write_steps;
                if let Some((_, p)) = &mut open {
                    p.read_steps += read_steps;
                    p.write_steps += write_steps;
                }
            }
            // Overlap issue/completion pairs are pure identity events: the
            // step charge of an overlapped batch is carried by its `Io`
            // event, so replay ignores them like gauges.
            ProbeEvent::GroupBegin { .. }
            | ProbeEvent::Gauge { .. }
            | ProbeEvent::OverlapIssue { .. }
            | ProbeEvent::OverlapComplete { .. } => {}
        }
    }
    if let Some((_, p)) = open.take() {
        out.phases.push(p);
    }
    out
}

/// Render the stripe efficiency of the `Io` events in `events` (others
/// are skipped) as at most `width` cells on the ramp `▁` … `█`. A batch's
/// efficiency is `blocks / (steps · D)`, with `steps` its largest per-disk
/// count (1.0 for an empty batch); each cell shows the mean over its share
/// of the batches.
pub fn sparkline(events: &[ProbeEvent], num_disks: usize, width: usize) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let eff: Vec<f64> = events
        .iter()
        .filter_map(|ev| match ev {
            ProbeEvent::Io {
                blocks, per_disk, ..
            } => {
                let steps = per_disk.iter().copied().max().unwrap_or(0);
                Some(if steps == 0 {
                    1.0
                } else {
                    *blocks as f64 / (steps as f64 * num_disks as f64)
                })
            }
            _ => None,
        })
        .collect();
    let cells = width.min(eff.len());
    (0..cells)
        .map(|i| {
            let lo = i * eff.len() / cells;
            let hi = ((i + 1) * eff.len() / cells).max(lo + 1);
            let avg = eff[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            RAMP[((avg * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_caps_and_counts_drops() {
        let mut p = Probe::new(2);
        p.on_batch(false, 4, 1, &[1, 1, 1, 1]);
        p.on_batch(false, 4, 1, &[1, 1, 1, 1]);
        p.on_batch(true, 4, 1, &[1, 1, 1, 1]);
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.dropped, 1);
        // the step clock keeps advancing even past the cap
        assert_eq!(p.step(), 3);
    }

    #[test]
    fn sparklines_are_bounded_and_skip_non_io_events() {
        let io = |blocks, per_disk: &[u64]| ProbeEvent::Io {
            step: 0,
            write: false,
            blocks,
            steps: 1,
            per_disk: per_disk.to_vec(),
            phase: None,
            group: None,
        };
        let full = vec![io(4, &[1, 1, 1, 1]); 500];
        assert_eq!(sparkline(&full, 4, 60), "█".repeat(60));
        assert!(sparkline(&[], 4, 60).is_empty());
        assert!(sparkline(&full, 4, 0).is_empty());
        let mixed = [
            io(4, &[1, 1, 1, 1]),
            ProbeEvent::GroupBegin { step: 0, id: 0 },
            io(1, &[1, 0, 0, 0]),
            io(0, &[0, 0, 0, 0]),
        ];
        assert_eq!(sparkline(&mixed, 4, 60), "█▃█");
    }

    #[test]
    fn replay_reconstructs_totals_and_phases() {
        let mut p = Probe::new(64);
        p.on_phase_begin("a", 0, 0);
        p.on_batch(false, 4, 1, &[1, 1, 1, 1]);
        p.on_batch(true, 2, 2, &[2, 0, 0, 0]);
        p.on_phase_end(0, 0);
        p.on_phase_begin("b", 0, 0);
        p.on_group_begin();
        p.on_batch(true, 1, 0, &[1, 0, 0, 0]); // deferred
        p.on_batch(true, 1, 0, &[0, 1, 0, 0]); // deferred
        p.on_group_settle(0, 1, false);
        p.on_phase_end(0, 0);
        let r = replay(p.events(), 4);
        assert_eq!(r.blocks_read, 4);
        assert_eq!(r.blocks_written, 4);
        assert_eq!(r.read_steps, 1);
        assert_eq!(r.write_steps, 3);
        assert_eq!(r.per_disk_writes, vec![3, 1, 0, 0]);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "a");
        assert_eq!(r.phases[0].write_steps, 2);
        assert_eq!(r.phases[1].name, "b");
        assert_eq!(r.phases[1].blocks_written, 2);
        assert_eq!(r.phases[1].write_steps, 1, "group charge lands in phase b");
    }

    #[test]
    fn phase_split_group_reopens_under_new_id() {
        let mut p = Probe::new(64);
        p.on_group_begin();
        p.on_batch(true, 1, 0, &[1, 0]);
        p.on_group_settle(0, 1, true); // phase boundary forces settlement
        assert!(matches!(p.events()[2], ProbeEvent::GroupEnd { id: 0, .. }));
        assert!(matches!(
            p.events()[3],
            ProbeEvent::GroupBegin { id: 1, .. }
        ));
        p.on_group_settle(0, 0, false);
        assert!(matches!(p.events()[4], ProbeEvent::GroupEnd { id: 1, .. }));
    }
}
