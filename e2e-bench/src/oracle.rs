//! Plaintext oracle for depth-capped answers.
//!
//! A query capped at `D` depths returns its current top-k estimate: each object's worst
//! score is the sum of the (weighted) scores seen for it in the first `D` depths of the
//! queried lists.  The oracle recomputes those seen-sums from the plaintext sorted lists
//! and checks a resolved answer against them.  Scores are compared as multisets, so any
//! choice among tied objects passes.

use std::collections::BTreeMap;

use sectopk_core::ResolvedResult;
use sectopk_storage::{ObjectId, SortedLists, TopKQuery};

/// Seen-sum of every object met in the first `depth` depths of the queried lists.
pub fn seen_sums(lists: &SortedLists, spec: &TopKQuery, depth: usize) -> BTreeMap<ObjectId, u128> {
    let mut sums = BTreeMap::new();
    for (j, &attr) in spec.attributes.iter().enumerate() {
        for item in lists.list(attr).iter().take(depth) {
            *sums.entry(item.object).or_insert(0) +=
                u128::from(item.score) * u128::from(spec.weight(j));
        }
    }
    sums
}

/// The top-`k` seen-sums at `depth`, largest first.
pub fn top_k_scores(lists: &SortedLists, spec: &TopKQuery, depth: usize) -> Vec<u128> {
    let mut scores: Vec<u128> = seen_sums(lists, spec, depth).into_values().collect();
    scores.sort_unstable_by(|a, b| b.cmp(a));
    scores.truncate(spec.k);
    scores
}

/// Check a resolved answer of a query that scanned `depth` depths.
pub fn check(
    lists: &SortedLists,
    spec: &TopKQuery,
    depth: usize,
    results: &[ResolvedResult],
) -> Result<(), String> {
    let sums = seen_sums(lists, spec, depth);
    let mut worst = Vec::new();
    for result in results {
        let Some(id) = result.object else { continue };
        let Some(&expected) = sums.get(&id) else {
            return Err(format!("{id} is not an object seen in the first {depth} depths"));
        };
        if u128::try_from(result.worst).ok() != Some(expected) {
            return Err(format!(
                "{id}: worst score {} but plaintext seen-sum {expected}",
                result.worst
            ));
        }
        worst.push(expected);
    }
    let mut ids: Vec<ObjectId> = results.iter().filter_map(|r| r.object).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != worst.len() {
        return Err("an object appears twice in the answer".to_string());
    }
    worst.sort_unstable_by(|a, b| b.cmp(a));
    let expected = top_k_scores(lists, spec, depth);
    if worst != expected {
        return Err(format!("worst scores {worst:?} but plaintext top-k seen-sums {expected:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectopk_core::nra_top_k;
    use sectopk_datasets::{generate, DatasetKind, DatasetSpec, QueryWorkload};

    fn relation() -> sectopk_storage::Relation {
        generate(&DatasetSpec { kind: DatasetKind::Insurance, rows: 200, attributes: 4 }, 3)
    }

    #[test]
    fn scores_at_the_halting_depth_equal_nra() {
        let relation = relation();
        let lists = relation.sorted_lists();
        for seed in 0..12 {
            let spec = QueryWorkload::fixed(4, 2 + (seed as usize % 3), 5, seed);
            let nra = nra_top_k(&relation, &spec.attributes, &spec.weights, spec.k);
            let nra_scores: Vec<u128> = nra.top_k.iter().map(|&(_, s)| s).collect();
            assert_eq!(
                top_k_scores(&lists, &spec, nra.halting_depth),
                nra_scores,
                "query {spec:?}"
            );
        }
    }

    #[test]
    fn check_accepts_nra_answers_and_rejects_a_wrong_score() {
        let relation = relation();
        let lists = relation.sorted_lists();
        let spec = QueryWorkload::fixed(4, 3, 5, 9);
        let nra = nra_top_k(&relation, &spec.attributes, &spec.weights, spec.k);
        let mut results: Vec<ResolvedResult> = nra
            .top_k
            .iter()
            .map(|&(id, s)| ResolvedResult { object: Some(id), worst: s as i64, best: s as i64 })
            .collect();
        assert_eq!(check(&lists, &spec, nra.halting_depth, &results), Ok(()));
        results[0].worst += 1;
        assert!(check(&lists, &spec, nra.halting_depth, &results).is_err());
    }
}
