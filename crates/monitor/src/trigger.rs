//! Acquisition triggers.
//!
//! § 3.5: the random-sampling sessions triggered immediately; ten
//! high-concurrency sessions triggered "when all eight processors in the
//! Cluster were active", and five transition sessions triggered on "the
//! transition from eight processors active to a smaller number active".

use fx8_sim::ProbeWord;
use serde::{Deserialize, Serialize};

/// When the analyzer starts filling its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// Capture immediately (random workload sampling).
    Immediate,
    /// Capture when every CE in the cluster is concurrent-active.
    AllCesActive,
    /// Capture at the cycle activity first drops below full concurrency.
    TransitionFromFull,
}

/// Stateful trigger evaluation over the record stream.
#[derive(Debug, Clone)]
pub struct TriggerState {
    trigger: Trigger,
    n_ces: u32,
    prev_full: bool,
}

impl TriggerState {
    /// Build an evaluator for a cluster of `n_ces` CEs.
    pub fn new(trigger: Trigger, n_ces: usize) -> Self {
        TriggerState {
            trigger,
            n_ces: n_ces as u32,
            prev_full: false,
        }
    }

    /// Feed one record; returns `true` when acquisition must start *at*
    /// this record (the record is included in the buffer).
    pub fn fire(&mut self, word: &ProbeWord) -> bool {
        let active = word.active_count();
        let full = active == self.n_ces;
        let fired = match self.trigger {
            Trigger::Immediate => true,
            Trigger::AllCesActive => full,
            Trigger::TransitionFromFull => self.prev_full && active < self.n_ces,
        };
        self.prev_full = full;
        fired
    }

    /// Would this trigger stay un-fired for *any* run of records whose
    /// active count holds constant at `active`? Used by the horizon-aware
    /// acquisition wait: while the cluster is quiescent the active mask
    /// cannot change, so a dormant trigger lets the monitor fast-forward
    /// instead of evaluating records one by one.
    ///
    /// `TransitionFromFull` needs care: the *first* record of the window is
    /// judged against the current `prev_full`, while every later record in
    /// a constant-activity run sees `prev_full == full` and can never be a
    /// falling edge. The single `prev_full && !full` term covers both.
    pub fn dormant(&self, active: u32) -> bool {
        let full = active == self.n_ces;
        match self.trigger {
            Trigger::Immediate => false,
            Trigger::AllCesActive => !full,
            // i.e. `!(prev_full && !full)`: no armed falling edge present.
            Trigger::TransitionFromFull => !self.prev_full || full,
        }
    }

    /// Advance the evaluator's edge state over a skipped run of records,
    /// all with active count `active`. Equivalent to calling [`fire`] on
    /// each skipped record (each such call is guaranteed `false` by
    /// [`dormant`]) — only the final `prev_full` survives. Must only be
    /// called when at least one cycle was actually skipped.
    ///
    /// [`fire`]: TriggerState::fire
    /// [`dormant`]: TriggerState::dormant
    pub fn note_skipped(&mut self, active: u32) {
        self.prev_full = active == self.n_ces;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(mask: fx8_sim::LaneWord) -> ProbeWord {
        let mut w = ProbeWord::idle(0);
        w.active_mask = mask;
        w
    }

    #[test]
    fn immediate_always_fires() {
        let mut t = TriggerState::new(Trigger::Immediate, 8);
        assert!(t.fire(&word(0)));
        assert!(t.fire(&word(0xff)));
    }

    #[test]
    fn all_active_fires_only_at_full_concurrency() {
        let mut t = TriggerState::new(Trigger::AllCesActive, 8);
        assert!(!t.fire(&word(0x7f)));
        assert!(t.fire(&word(0xff)));
        assert!(!t.fire(&word(0x01)));
    }

    #[test]
    fn transition_fires_on_falling_edge_only() {
        let mut t = TriggerState::new(Trigger::TransitionFromFull, 8);
        assert!(!t.fire(&word(0xff)), "full itself is not a transition");
        assert!(!t.fire(&word(0xff)), "still full");
        assert!(t.fire(&word(0x7f)), "8 -> 7 is the trigger");
        assert!(!t.fire(&word(0x3f)), "7 -> 6 is not (not from full)");
        assert!(!t.fire(&word(0xff)), "rising edge is not");
        assert!(t.fire(&word(0x00)), "8 -> 0 fires too");
    }

    /// `dormant(a)` must imply `fire` returns false for every record in a
    /// constant-activity run at `a`, from any reachable edge state — the
    /// contract the fast-forwarding wait loop relies on.
    #[test]
    fn dormant_implies_no_fire_over_constant_runs() {
        for trigger in [
            Trigger::Immediate,
            Trigger::AllCesActive,
            Trigger::TransitionFromFull,
        ] {
            for n_ces in [8usize, 32, 64] {
                for prev_full in [false, true] {
                    for active in 0..=n_ces as u32 {
                        let mut t = TriggerState::new(trigger, n_ces);
                        t.prev_full = prev_full;
                        if !t.dormant(active) {
                            continue;
                        }
                        let mask = fx8_sim::lane_mask(active as usize);
                        let mut replay = t.clone();
                        for i in 0..4 {
                            assert!(
                                !replay.fire(&word(mask)),
                                "{trigger:?} n_ces={n_ces} prev_full={prev_full} \
                                 active={active} fired at record {i}"
                            );
                        }
                        // note_skipped lands on the same edge state the
                        // per-record replay reaches.
                        t.note_skipped(active);
                        assert_eq!(t.prev_full, replay.prev_full);
                    }
                }
            }
        }
    }

    #[test]
    fn dormancy_per_trigger_shape() {
        // Immediate is never dormant; AllCesActive is dormant below full;
        // TransitionFromFull is only awake when armed on a falling edge.
        let t = TriggerState::new(Trigger::Immediate, 8);
        assert!(!t.dormant(0));
        let t = TriggerState::new(Trigger::AllCesActive, 8);
        assert!(t.dormant(7) && !t.dormant(8));
        let mut t = TriggerState::new(Trigger::TransitionFromFull, 8);
        assert!(t.dormant(8) && t.dormant(3), "no edge pending from idle");
        t.note_skipped(8);
        assert!(t.dormant(8), "still full: no falling edge yet");
        assert!(!t.dormant(7), "armed: the very next record would fire");
    }

    #[test]
    fn transition_respects_cluster_width() {
        // A 2-CE cluster: full = both active.
        let mut t = TriggerState::new(Trigger::TransitionFromFull, 2);
        assert!(!t.fire(&word(0b11)));
        assert!(t.fire(&word(0b01)));
    }
}
