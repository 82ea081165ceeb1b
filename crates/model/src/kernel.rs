//! The guarded-action kernel: rules, schedules, and a breadth-first
//! explicit-state explorer over hash-consed canonical states.
//!
//! A [`Rule`] is a named family of atomic transitions indexed by a small
//! integer parameter: `guard(state, param)` says whether the transition
//! is enabled, `action(state, param)` produces the successor. The
//! explorer enumerates **every** interleaving by firing every enabled
//! `(rule, param)` pair from every reachable state, canonicalizing each
//! successor before lookup so symmetric states (renumbered versions,
//! permuted transaction slots) collapse into one.
//!
//! Each *new* state is judged by a caller-supplied checker the moment it
//! is discovered. The first failure aborts the search and is returned
//! with a minimal replayable [`Schedule`] — minimal because the search is
//! breadth-first, so the failing state sits at the shallowest depth at
//! which any violation is reachable.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

use multicube_sim::FxHashMap;

/// A guard predicate over `(state, param)`.
pub type Guard<S> = Box<dyn Fn(&S, u32) -> bool + Send + Sync>;

/// An action producing the successor of `(state, param)`.
pub type Action<S> = Box<dyn Fn(&S, u32) -> S + Send + Sync>;

/// One guarded atomic transition family.
pub struct Rule<S> {
    /// Stable rule name, used in serialized schedules.
    pub name: &'static str,
    /// Parameters range over `0..params`.
    pub params: u32,
    /// Enabledness predicate.
    pub guard: Guard<S>,
    /// Successor function; only called when the guard holds.
    pub action: Action<S>,
}

impl<S> Rule<S> {
    /// Builds a rule from closures.
    pub fn new(
        name: &'static str,
        params: u32,
        guard: impl Fn(&S, u32) -> bool + Send + Sync + 'static,
        action: impl Fn(&S, u32) -> S + Send + Sync + 'static,
    ) -> Self {
        Rule {
            name,
            params,
            guard: Box::new(guard),
            action: Box::new(action),
        }
    }
}

/// One fired transition in a serialized schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Name of the rule that fired.
    pub rule: String,
    /// The parameter it fired with.
    pub param: u32,
}

/// A replayable sequence of fired transitions.
pub type Schedule = Vec<Step>;

/// A checker failure found during exploration, with the minimal schedule
/// that reproduces it from the initial state.
#[derive(Debug, Clone)]
pub struct Counterexample<E> {
    /// Id of the violating state in [`Exploration::states`].
    pub state_id: usize,
    /// The invariant violation.
    pub error: E,
    /// Shortest rule sequence reaching the violating state.
    pub schedule: Schedule,
}

/// The result of an exhaustive breadth-first exploration.
pub struct Exploration<S, E> {
    /// Every distinct canonical state, indexed by discovery order (the
    /// initial state is id 0).
    pub states: Vec<S>,
    /// `parents[id]` is `(parent_id, rule_index, param)` for every state
    /// but the initial one.
    pub parents: Vec<Option<(usize, usize, u32)>>,
    /// Total transitions fired (including ones that landed on an
    /// already-known state).
    pub transitions: u64,
    /// The first invariant violation found, if any; exploration stops at
    /// the first one so the schedule is minimal.
    pub violation: Option<Counterexample<E>>,
    /// True if the state cap was hit before the frontier emptied.
    pub truncated: bool,
}

impl<S, E> Exploration<S, E> {
    /// The shortest schedule reaching state `id`, reconstructed from
    /// parent pointers.
    pub fn schedule_to(&self, rules: &[Rule<S>], mut id: usize) -> Schedule {
        let mut steps = Vec::new();
        while let Some((parent, rule_idx, param)) = self.parents[id] {
            steps.push(Step {
                rule: rules[rule_idx].name.to_string(),
                param,
            });
            id = parent;
        }
        steps.reverse();
        steps
    }
}

/// Exhaustively explores the state space of `rules` from `initial`.
///
/// `canon` maps states to canonical representatives before hash-consing;
/// `check` judges every newly discovered state. Exploration stops at the
/// first violation (returning its minimal schedule) or when `max_states`
/// distinct states have been discovered (`truncated` is set).
pub fn explore<S, E>(
    initial: S,
    rules: &[Rule<S>],
    canon: impl Fn(&S) -> S,
    check: impl Fn(&S) -> Result<(), E>,
    max_states: usize,
) -> Exploration<S, E>
where
    S: Clone + Eq + Hash,
{
    let mut states: Vec<S> = Vec::new();
    let mut parents: Vec<Option<(usize, usize, u32)>> = Vec::new();
    let mut ids: FxHashMap<S, usize> = FxHashMap::default();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut transitions = 0u64;
    let mut truncated = false;

    let root = canon(&initial);
    states.push(root.clone());
    parents.push(None);
    ids.insert(root, 0);
    queue.push_back(0);

    if let Err(error) = check(&states[0]) {
        return Exploration {
            states,
            parents,
            transitions,
            violation: Some(Counterexample {
                state_id: 0,
                error,
                schedule: Vec::new(),
            }),
            truncated,
        };
    }

    'bfs: while let Some(id) = queue.pop_front() {
        for (rule_idx, rule) in rules.iter().enumerate() {
            for param in 0..rule.params {
                if !(rule.guard)(&states[id], param) {
                    continue;
                }
                transitions += 1;
                let new_id = states.len();
                // One hash per successor; only a new state is cloned.
                match ids.entry(canon(&(rule.action)(&states[id], param))) {
                    Entry::Occupied(_) => continue,
                    Entry::Vacant(slot) => {
                        states.push(slot.key().clone());
                        slot.insert(new_id);
                    }
                }
                parents.push(Some((id, rule_idx, param)));
                if let Err(error) = check(&states[new_id]) {
                    let exploration = Exploration {
                        states,
                        parents,
                        transitions,
                        violation: None,
                        truncated,
                    };
                    let schedule = exploration.schedule_to(rules, new_id);
                    let mut exploration = exploration;
                    exploration.violation = Some(Counterexample {
                        state_id: new_id,
                        error,
                        schedule,
                    });
                    return exploration;
                }
                if states.len() >= max_states {
                    truncated = true;
                    break 'bfs;
                }
                queue.push_back(new_id);
            }
        }
    }

    Exploration {
        states,
        parents,
        transitions,
        violation: None,
        truncated,
    }
}

/// Replays a schedule from `initial`, checking every intermediate state.
///
/// # Errors
///
/// `Err((step_index, message))` when a step names an unknown rule, its
/// guard is disabled, or the checker rejects the state it produces. The
/// step index is 0-based; index `schedule.len()` never occurs (the final
/// state is checked under the last step's index).
pub fn replay<S, E>(
    initial: S,
    rules: &[Rule<S>],
    canon: impl Fn(&S) -> S,
    check: impl Fn(&S) -> Result<(), E>,
    schedule: &[Step],
) -> Result<S, (usize, String)>
where
    S: Clone,
    E: std::fmt::Display,
{
    let mut state = canon(&initial);
    if let Err(e) = check(&state) {
        return Err((0, format!("initial state violates invariants: {e}")));
    }
    for (i, step) in schedule.iter().enumerate() {
        let Some(rule) = rules.iter().find(|r| r.name == step.rule) else {
            return Err((i, format!("unknown rule `{}`", step.rule)));
        };
        if step.param >= rule.params {
            return Err((
                i,
                format!("param {} out of range for `{}`", step.param, rule.name),
            ));
        }
        if !(rule.guard)(&state, step.param) {
            return Err((
                i,
                format!("rule `{}` param {} is not enabled", rule.name, step.param),
            ));
        }
        state = canon(&(rule.action)(&state, step.param));
        if let Err(e) = check(&state) {
            return Err((i, format!("invariant violated after step {i}: {e}")));
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy counter system: increment by 1 or 2 up to a bound.
    fn counter_rules(bound: u8) -> Vec<Rule<u8>> {
        vec![Rule::new(
            "inc",
            2,
            move |s, p| *s as u32 + p < bound as u32,
            |s, p| s + p as u8 + 1,
        )]
    }

    #[test]
    fn bfs_visits_every_counter_value() {
        let rules = counter_rules(9);
        let ex = explore(0u8, &rules, |s| *s, |_| Ok::<(), String>(()), 1 << 20);
        assert_eq!(ex.states.len(), 10);
        assert!(ex.violation.is_none());
        assert!(!ex.truncated);
    }

    #[test]
    fn first_violation_has_minimal_schedule() {
        let rules = counter_rules(9);
        // Forbid values >= 5: the shortest path to 5 is 2+2+1 (three steps).
        let ex = explore(
            0u8,
            &rules,
            |s| *s,
            |s| {
                if *s >= 5 {
                    Err(format!("hit {s}"))
                } else {
                    Ok(())
                }
            },
            1 << 20,
        );
        let v = ex.violation.expect("a violation must be found");
        assert_eq!(ex.states[v.state_id], 5);
        assert_eq!(v.schedule.len(), 3);
        // The schedule replays to the same failing step.
        let err = replay(
            0u8,
            &rules,
            |s| *s,
            |s| {
                if *s >= 5 {
                    Err(format!("hit {s}"))
                } else {
                    Ok(())
                }
            },
            &v.schedule,
        )
        .unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn replay_rejects_disabled_guards() {
        let rules = counter_rules(3);
        let sched = vec![
            Step {
                rule: "inc".into(),
                param: 1,
            },
            Step {
                rule: "inc".into(),
                param: 1,
            },
        ];
        let err = replay(0u8, &rules, |s| *s, |_| Ok::<(), String>(()), &sched).unwrap_err();
        assert_eq!(err.0, 1);
    }
}
