//! Cost-based admission: the bound on evaluation work in progress.
//!
//! Every evaluation declares its **cost**, the number of scalar
//! evaluations it expands to: one per profile, one per scenario, one per
//! cohort member. [`Admission::admit`] lets it run only while the summed
//! cost of the evaluations in progress, across every poller shard, stays
//! within capacity; otherwise it fails fast with
//! [`ServeError::Overloaded`] and the client learns to back off. The
//! returned [`Permit`] releases the cost when it drops, however the
//! evaluation ends.
//!
//! A single evaluation whose cost exceeds the whole capacity is always
//! shed: the bound is the contract.

use std::sync::{Mutex, MutexGuard};

use crate::error::ServeError;

/// Evaluations and their summed cost in progress.
#[derive(Debug, Default)]
struct InProgress {
    jobs: usize,
    cost: usize,
}

/// The shared admission gate.
#[derive(Debug)]
pub(crate) struct Admission {
    state: Mutex<InProgress>,
    capacity: usize,
}

/// One admitted evaluation's claim on the gate, released on drop.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    gate: &'a Admission,
    cost: usize,
}

impl Admission {
    /// A gate bounding the cost in progress at `capacity`.
    pub(crate) fn new(capacity: usize) -> Admission {
        Admission {
            state: Mutex::new(InProgress::default()),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, InProgress> {
        // The critical sections cannot panic, so the counts stay valid
        // even if a foreign panic poisoned the lock.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admits an evaluation of `cost` (clamped to at least 1). Also
    /// returns how many evaluations were in progress when it asked, the
    /// queue depth a trace record reports.
    pub(crate) fn admit(&self, cost: usize) -> (usize, Result<Permit<'_>, ServeError>) {
        let cost = cost.max(1);
        let mut st = self.lock();
        let depth = st.jobs;
        if st.cost + cost > self.capacity {
            hmdiv_obs::counter_add("serve.overloaded", 1);
            return (
                depth,
                Err(ServeError::Overloaded {
                    capacity: self.capacity,
                }),
            );
        }
        st.jobs += 1;
        st.cost += cost;
        (depth, Ok(Permit { gate: self, cost }))
    }

    /// Evaluations and their summed cost in progress right now (for the
    /// `metrics` verb).
    pub(crate) fn in_progress(&self) -> (usize, usize) {
        let st = self.lock();
        (st.jobs, st.cost)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.jobs -= 1;
        st.cost -= self.cost;
    }
}

#[cfg(test)]
mod tests {
    //! Admission is the one state the poller shards share; these tests
    //! are the CI Miri targets for it.

    use super::*;

    #[test]
    fn admission_charges_cost_and_releases_it_on_drop() {
        let gate = Admission::new(3);
        let (depth, two) = gate.admit(2);
        assert_eq!(depth, 0);
        let two = two.expect("2 of 3 fits");
        assert!(matches!(
            gate.admit(2),
            (1, Err(ServeError::Overloaded { capacity: 3 }))
        ));
        let one = gate.admit(0).1.expect("a zero cost is charged as 1");
        assert_eq!(gate.in_progress(), (2, 3));
        drop(two);
        drop(one);
        assert_eq!(gate.in_progress(), (0, 0));
        assert!(gate.admit(4).1.is_err(), "a cost above capacity never fits");
        assert!(Admission::new(0).admit(1).1.is_err());
    }

    #[test]
    fn admission_under_contention_never_exceeds_capacity() {
        const CAPACITY: usize = 5;
        let gate = Admission::new(CAPACITY);
        std::thread::scope(|s| {
            for t in 0..4 {
                let gate = &gate;
                s.spawn(move || {
                    for i in 0..25 {
                        let cost = 1 + (t + i) % 3;
                        if let (_, Ok(permit)) = gate.admit(cost) {
                            let (_, in_progress) = gate.in_progress();
                            assert!(in_progress <= CAPACITY, "{in_progress} in progress");
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert_eq!(gate.in_progress(), (0, 0), "every permit was released");
    }
}
