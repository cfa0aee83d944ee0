//! The problem interface the branch-&-bound engine optimizes over.

/// A complete assignment: one domain value per variable.
pub type Assignment = Vec<u32>;

/// A partial assignment during search: `None` means "not yet branched".
pub type PartialAssignment = [Option<u32>];

/// A minimization problem over finite-domain variables.
///
/// Implementations encode both the *constraints* (via [`CostModel::cost`]
/// returning `None`, and via [`CostModel::prune`] for early subtree
/// rejection) and the *objective*.
///
/// # Incremental evaluation protocol
///
/// `prune`, `bound` and `cost` are *from-scratch* evaluators: they re-derive
/// the model's verdict from the whole (partial) assignment on every call. On
/// hot search loops that recomputation dominates, so the engine also speaks
/// an incremental dialect:
///
/// * each search worker owns one [`CostModel::Scratch`] (created by
///   [`CostModel::new_scratch`]),
/// * the engine calls [`CostModel::push`] right after assigning a variable
///   and [`CostModel::pop`] right before unassigning it, in strict **stack
///   (LIFO) discipline** — the variable popped is always the most recently
///   pushed one still live,
/// * [`CostModel::prune_with`] / [`CostModel::bound_with`] /
///   [`CostModel::cost_with`] may then answer from delta-maintained scratch
///   state in O(changed variable) instead of O(problem).
///
/// The default hooks are no-ops and the `_with` evaluators fall back to the
/// from-scratch methods, so existing models work unchanged (declare
/// `type Scratch = ();`). Implementations that do maintain state must keep
/// the *equivalence contract*: for any reachable scratch state,
/// `prune_with` returns exactly `prune(partial)`, `cost_with` returns a
/// bit-identical `cost(assignment)`, and `bound_with` stays an admissible
/// lower bound agreeing with `bound(partial)` up to floating-point
/// reassociation noise.
pub trait CostModel {
    /// Per-search-worker incremental evaluation state. Models without
    /// incremental support use `()`.
    type Scratch: Default;

    /// Number of decision variables.
    fn num_vars(&self) -> usize;

    /// Domain of variable `var` (non-empty, ordered; order fixes the
    /// deterministic branching order).
    fn domain(&self, var: usize) -> &[u32];

    /// Cost of a complete assignment, or `None` if it violates a
    /// constraint. Lower is better.
    fn cost(&self, assignment: &Assignment) -> Option<f64>;

    /// Admissible lower bound on the cost of any completion of `partial`.
    /// Returning `0.0` disables bounding; a tighter bound prunes more.
    fn bound(&self, _partial: &PartialAssignment) -> f64 {
        0.0
    }

    /// Returns `true` when no completion of `partial` can be feasible,
    /// letting the engine discard the subtree before reaching leaves.
    fn prune(&self, _partial: &PartialAssignment) -> bool {
        false
    }

    /// Creates the per-worker scratch state for an empty assignment.
    fn new_scratch(&self) -> Self::Scratch {
        Self::Scratch::default()
    }

    /// Notifies the scratch that `var` was just assigned `value`
    /// (`partial[var]` went `None → Some(value)`). Stack discipline: pushes
    /// are only ever undone by [`CostModel::pop`] in LIFO order.
    fn push(&self, _scratch: &mut Self::Scratch, _var: usize, _value: u32) {}

    /// Notifies the scratch that the most recently pushed live variable
    /// `var` is about to be unassigned (`Some(_) → None`).
    fn pop(&self, _scratch: &mut Self::Scratch, _var: usize) {}

    /// Incremental [`CostModel::prune`]: same answer, scratch-accelerated.
    fn prune_with(&self, _scratch: &Self::Scratch, partial: &PartialAssignment) -> bool {
        self.prune(partial)
    }

    /// Incremental [`CostModel::bound`]: an admissible bound computed from
    /// scratch state (equal to `bound` up to FP reassociation).
    fn bound_with(&self, _scratch: &Self::Scratch, partial: &PartialAssignment) -> f64 {
        self.bound(partial)
    }

    /// Incremental [`CostModel::cost`]: bit-identical answer, but allowed to
    /// reuse scratch buffers (e.g. a preallocated evaluation workspace).
    fn cost_with(&self, _scratch: &mut Self::Scratch, assignment: &Assignment) -> Option<f64> {
        self.cost(assignment)
    }
}

/// Wraps a model and hides its incremental implementation: every evaluation
/// goes through the from-scratch `prune`/`bound`/`cost` path. This is the
/// reference semantics the incremental protocol must reproduce, used by the
/// equivalence property tests.
pub struct NonIncremental<'m, M>(pub &'m M);

impl<M: CostModel> CostModel for NonIncremental<'_, M> {
    type Scratch = ();
    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }
    fn domain(&self, var: usize) -> &[u32] {
        self.0.domain(var)
    }
    fn cost(&self, assignment: &Assignment) -> Option<f64> {
        self.0.cost(assignment)
    }
    fn bound(&self, partial: &PartialAssignment) -> f64 {
        self.0.bound(partial)
    }
    fn prune(&self, partial: &PartialAssignment) -> bool {
        self.0.prune(partial)
    }
}

/// Exhaustive enumeration (reference oracle for tests and tiny instances).
pub fn brute_force<M: CostModel>(model: &M) -> Option<(Assignment, f64)> {
    let n = model.num_vars();
    let mut best: Option<(Assignment, f64)> = None;
    let mut current: Assignment = vec![0; n];
    fn rec<M: CostModel>(
        model: &M,
        var: usize,
        current: &mut Assignment,
        best: &mut Option<(Assignment, f64)>,
    ) {
        if var == model.num_vars() {
            if let Some(c) = model.cost(current) {
                let better = best.as_ref().is_none_or(|(_, b)| c < *b);
                if better {
                    *best = Some((current.clone(), c));
                }
            }
            return;
        }
        for &v in model.domain(var) {
            current[var] = v;
            rec(model, var + 1, current, best);
        }
    }
    rec(model, 0, &mut current, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize sum of chosen values subject to "no two equal neighbours".
    struct Toy {
        domains: Vec<Vec<u32>>,
    }

    impl CostModel for Toy {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.domains.len()
        }
        fn domain(&self, var: usize) -> &[u32] {
            &self.domains[var]
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            if a.windows(2).any(|w| w[0] == w[1]) {
                return None;
            }
            Some(a.iter().map(|&v| v as f64).sum())
        }
    }

    #[test]
    fn brute_force_finds_optimum() {
        let m = Toy {
            domains: vec![vec![0, 1], vec![0, 1], vec![0, 1]],
        };
        let (a, c) = brute_force(&m).expect("feasible");
        // Alternating assignments; cheapest is 0,1,0 = 1.
        assert_eq!(a, vec![0, 1, 0]);
        assert_eq!(c, 1.0);
    }

    #[test]
    fn brute_force_detects_infeasibility() {
        let m = Toy {
            domains: vec![vec![3], vec![3]],
        };
        assert!(brute_force(&m).is_none());
    }
}
