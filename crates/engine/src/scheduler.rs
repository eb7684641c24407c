//! The self-tuning race scheduler behind
//! [`RaceStrategy::Adaptive`](crate::RaceStrategy::Adaptive).
//!
//! A fixed entrant count chosen at configuration time would be wrong
//! for most queries, because the right answer changes query by query:
//! a confidently-predicted heavy query on an idle pool is best served
//! by *one* entrant split into many cooperating root-candidate slices
//! (intra-query parallelism), while a saturated pool wants the
//! opposite — many queries in flight, one slice each, so admission
//! throughput never starves behind any single query's fan-out.
//!
//! [`plan_race`] decides both dimensions per query from three live
//! signals:
//!
//! * **predictor vote margin** — a confident ranking shrinks the heat
//!   (fewer entrants wasted re-deriving a known winner), an uncertain one
//!   widens it;
//! * **observed escalation rate** — when pruned heats keep escalating,
//!   the ranking is overclaiming, so every heat gets one extra entrant of
//!   insurance;
//! * **pool occupancy** — spare workers (beyond one per heat entrant) are
//!   handed out as extra slices, capped by the strategy's `max_slices`;
//!   zero spare capacity degrades to classic one-slice racing.
//!
//! The plan is a *hint*: slicing never changes answers (the slice merge
//! is deterministic — see `psi_matchers::slice`), and a stale occupancy
//! reading costs only latency.

/// Predictor vote share at or above which a single predicted entrant
/// carries the heat alone.
const CONFIDENT_VOTE: f64 = 0.75;
/// Vote share at or above which two entrants suffice; below this the
/// heat takes half the field.
const LEANING_VOTE: f64 = 0.45;
/// Escalation rate above which every heat gets one extra entrant of
/// insurance — the predictor's rankings are demonstrably overclaiming.
const ESCALATION_ALARM: f64 = 0.25;

/// Everything [`plan_race`] consults for one query.
pub struct SchedulerInputs {
    /// Size of the entrant field (variants prepared for this query).
    pub entrants: usize,
    /// The predictor's ranked order and leader vote share, when trained
    /// and not suppressed by an exploration probe. `None` races the full
    /// field.
    pub ranking: Option<(Vec<usize>, f64)>,
    /// `escalations / topk_races` observed so far (0 when nothing
    /// staged yet).
    pub escalation_rate: f64,
    /// Workers not currently running a task, read from
    /// [`WorkerPool::idle`](crate::WorkerPool::idle) at plan time.
    pub idle_workers: usize,
    /// Upper bound on slices per entrant
    /// ([`RaceStrategy::Adaptive`](crate::RaceStrategy::Adaptive)`::max_slices`).
    pub max_slices: usize,
    /// Node count of the (rewritten) query being raced.
    pub query_nodes: usize,
    /// Smallest query eligible for slicing
    /// ([`EngineConfig::slice_min_query_nodes`](crate::EngineConfig::slice_min_query_nodes)).
    pub slice_min_query_nodes: usize,
}

/// One query's launch plan: which entrants race, how many launch in the
/// first heat (the rest reserve for escalation), and how many
/// root-candidate slices each heat entrant's search splits into.
pub struct RacePlan {
    /// Entrant indices, best-ranked first; `order[..heat]` launches,
    /// `order[heat..]` is the escalation reserve.
    pub order: Vec<usize>,
    /// Entrants in the first heat (`1..=order.len()`).
    pub heat: usize,
    /// Cooperating slice tasks per heat entrant (≥ 1; 1 means ordinary
    /// unsliced execution). Escalated reserves always run single-slice.
    pub slices: usize,
}

/// Decides the entrant heat and per-entrant slice count for one query.
/// See the module docs for the policy.
pub fn plan_race(inputs: SchedulerInputs) -> RacePlan {
    let n = inputs.entrants.max(1);
    let (order, heat) = match inputs.ranking {
        Some((order, vote)) if n > 1 && order.len() == n => {
            let mut k = if vote >= CONFIDENT_VOTE {
                1
            } else if vote >= LEANING_VOTE {
                2
            } else {
                n.div_ceil(2)
            };
            if inputs.escalation_rate > ESCALATION_ALARM {
                k += 1;
            }
            (order, k.min(n))
        }
        // Cold predictor, exploration probe, or a malformed ranking:
        // full field in configuration order, exactly like `Full`.
        _ => ((0..n).collect(), n),
    };
    let sliceable = inputs.max_slices > 1 && inputs.query_nodes >= inputs.slice_min_query_nodes;
    let slices = if sliceable {
        // One worker per heat entrant is spoken for; spares are dealt
        // out evenly as extra slices. Integer division biases low: a
        // spare worker that cannot serve *every* heat entrant serves
        // none, so heats never oversubscribe the pool by design.
        let spare = inputs.idle_workers.saturating_sub(heat);
        (1 + spare / heat).min(inputs.max_slices)
    } else {
        1
    };
    RacePlan { order, heat, slices }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> SchedulerInputs {
        SchedulerInputs {
            entrants: 6,
            ranking: None,
            escalation_rate: 0.0,
            idle_workers: 6,
            max_slices: 4,
            query_nodes: 12,
            slice_min_query_nodes: 6,
        }
    }

    #[test]
    fn cold_predictor_races_full_field_with_slices() {
        // 2 entrants, 6 idle workers: spare 4 → 3 slices each, even
        // before the predictor has trained.
        let plan = plan_race(SchedulerInputs { entrants: 2, ..inputs() });
        assert_eq!(plan.order, vec![0, 1]);
        assert_eq!(plan.heat, 2);
        assert_eq!(plan.slices, 3);
    }

    #[test]
    fn confident_vote_narrows_heat_and_widens_slices() {
        let plan =
            plan_race(SchedulerInputs { ranking: Some((vec![3, 1, 0, 2, 4, 5], 0.9)), ..inputs() });
        assert_eq!(plan.heat, 1, "confident leader races alone");
        assert_eq!(plan.order[0], 3);
        assert_eq!(plan.slices, 4, "spare capacity becomes slices, capped at max_slices");
    }

    #[test]
    fn leaning_vote_takes_two_uncertain_takes_half() {
        let leaning =
            plan_race(SchedulerInputs { ranking: Some((vec![0, 1, 2, 3, 4, 5], 0.5)), ..inputs() });
        assert_eq!(leaning.heat, 2);
        let uncertain =
            plan_race(SchedulerInputs { ranking: Some((vec![0, 1, 2, 3, 4, 5], 0.2)), ..inputs() });
        assert_eq!(uncertain.heat, 3, "half the field (ceil) under an uncertain ranking");
    }

    #[test]
    fn high_escalation_rate_adds_an_insurance_entrant() {
        let plan = plan_race(SchedulerInputs {
            ranking: Some((vec![0, 1, 2, 3, 4, 5], 0.9)),
            escalation_rate: 0.4,
            ..inputs()
        });
        assert_eq!(plan.heat, 2, "overclaiming predictor costs one extra entrant");
    }

    #[test]
    fn saturated_pool_degrades_to_single_slice() {
        let plan = plan_race(SchedulerInputs { idle_workers: 0, ..inputs() });
        assert_eq!(plan.slices, 1);
        let tight = plan_race(SchedulerInputs { entrants: 2, idle_workers: 2, ..inputs() });
        assert_eq!(tight.slices, 1, "no spare beyond one worker per entrant");
    }

    #[test]
    fn small_queries_never_slice() {
        let plan = plan_race(SchedulerInputs { query_nodes: 3, entrants: 2, ..inputs() });
        assert_eq!(plan.slices, 1);
    }

    #[test]
    fn max_slices_one_disables_slicing() {
        let plan = plan_race(SchedulerInputs { max_slices: 1, entrants: 2, ..inputs() });
        assert_eq!(plan.slices, 1);
    }

    #[test]
    fn heat_never_exceeds_field() {
        let plan = plan_race(SchedulerInputs {
            entrants: 1,
            ranking: Some((vec![0], 0.1)),
            escalation_rate: 1.0,
            ..inputs()
        });
        assert_eq!(plan.heat, 1);
        assert_eq!(plan.order, vec![0]);
    }

    #[test]
    fn malformed_ranking_falls_back_to_full_field() {
        let plan = plan_race(SchedulerInputs {
            ranking: Some((vec![0, 1], 0.9)), // wrong length for 6 entrants
            ..inputs()
        });
        assert_eq!(plan.heat, 6);
        assert_eq!(plan.order, vec![0, 1, 2, 3, 4, 5]);
    }
}
