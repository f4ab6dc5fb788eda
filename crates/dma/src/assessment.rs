//! Adoption accounting for batch assessment.
//!
//! DMA "receives hundreds of assessment requests daily" (abstract) and
//! Table 1 reports its adoption: unique instances assessed, unique
//! databases assessed, and total recommendations generated, per month.
//! This module keeps those three counters. The batch execution itself is
//! served by the `doppler-fleet` worker pool: its fleet report fills this
//! ledger from month-tagged requests (`doppler_fleet::FleetRequest::with_month`).

/// One month's adoption counters (a Table 1 row), extended with the
/// drift-monitoring outcomes of continuous operation: how many deployed
/// customers were re-checked this month and how many had drifted off
/// their SKU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MonthlyAdoption {
    pub unique_instances: usize,
    pub unique_databases: usize,
    pub recommendations_generated: usize,
    /// Drift checks run against deployed customers this month.
    pub drift_checks: usize,
    /// Of those, checks that detected a SKU change.
    pub drift_detected: usize,
    /// Catalog version rolls processed this month (price feeds / catalog
    /// swaps that superseded a key customers were pinned to).
    pub catalog_rolls: usize,
    /// Customers re-priced through the priority lane because their catalog
    /// key rolled.
    pub customers_repriced: usize,
}

/// Adoption counters by month label (e.g. `"Oct-21"`), in first-seen
/// order — Table 1 reads chronologically, not alphabetically.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AdoptionLedger {
    months: Vec<(String, MonthlyAdoption)>,
}

impl AdoptionLedger {
    /// The month's row, appended (in first-seen order) if new.
    fn entry(&mut self, month: &str) -> &mut MonthlyAdoption {
        match self.months.iter().position(|(k, _)| k == month) {
            Some(i) => &mut self.months[i].1,
            None => {
                self.months.push((month.to_string(), MonthlyAdoption::default()));
                &mut self.months.last_mut().expect("just pushed").1
            }
        }
    }

    /// Record one completed assessment. `recommendations` counts the
    /// recommendation variants produced for the request (DMA emits one per
    /// eligible target; at least one per assessed instance).
    pub fn record(&mut self, month: &str, databases: usize, recommendations: usize) {
        let m = self.entry(month);
        m.unique_instances += 1;
        m.unique_databases += databases;
        m.recommendations_generated += recommendations;
    }

    /// Record one drift check against a deployed customer — the
    /// continuous-monitoring counterpart of [`record`](AdoptionLedger::record).
    pub fn record_drift(&mut self, month: &str, drifted: bool) {
        let m = self.entry(month);
        m.drift_checks += 1;
        if drifted {
            m.drift_detected += 1;
        }
    }

    /// Record one catalog version roll and how many pinned customers it
    /// re-priced — the lifecycle counterpart of
    /// [`record_drift`](AdoptionLedger::record_drift): a billing change is
    /// fleet work the same way drift is, and it reads off the same Table 1
    /// dashboard.
    pub fn record_roll(&mut self, month: &str, repriced: usize) {
        let m = self.entry(month);
        m.catalog_rolls += 1;
        m.customers_repriced += repriced;
    }

    /// Fold another ledger's counters into this one, month-wise. Months
    /// unseen so far are appended in the other ledger's order, so merging
    /// period reports into a running total preserves chronology.
    pub fn merge(&mut self, other: &AdoptionLedger) {
        for (month, row) in other.rows() {
            self.add_row(month, row);
        }
    }

    /// Fold one prebuilt row into `month`, field-wise — appended in
    /// first-seen order if the month is new. The fleet aggregator uses
    /// this to build its ledger from accumulated month rows in submission
    /// order, whatever order the results completed in.
    pub fn add_row(&mut self, month: &str, row: &MonthlyAdoption) {
        let m = self.entry(month);
        m.unique_instances += row.unique_instances;
        m.unique_databases += row.unique_databases;
        m.recommendations_generated += row.recommendations_generated;
        m.drift_checks += row.drift_checks;
        m.drift_detected += row.drift_detected;
        m.catalog_rolls += row.catalog_rolls;
        m.customers_repriced += row.customers_repriced;
    }

    /// Iterate rows in first-recorded order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &MonthlyAdoption)> {
        self.months.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A specific month's counters.
    pub fn month(&self, label: &str) -> Option<&MonthlyAdoption> {
        self.months.iter().find(|(k, _)| k == label).map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_instances_databases_recommendations() {
        let mut ledger = AdoptionLedger::default();
        for _ in 0..3 {
            ledger.record("Oct-21", 2, 4);
        }
        let m = ledger.month("Oct-21").unwrap();
        assert_eq!(m.unique_instances, 3);
        assert_eq!(m.unique_databases, 6);
        assert_eq!(m.recommendations_generated, 12);
    }

    #[test]
    fn ledger_accumulates_across_batches_within_a_month() {
        let mut ledger = AdoptionLedger::default();
        ledger.record("Nov-21", 1, 1);
        ledger.record("Nov-21", 1, 1);
        assert_eq!(ledger.month("Nov-21").unwrap().unique_instances, 2);
        assert_eq!(ledger.rows().count(), 1);
    }

    #[test]
    fn months_read_in_first_seen_order() {
        let mut ledger = AdoptionLedger::default();
        for month in ["Oct-21", "Nov-21", "Dec-21", "Nov-21"] {
            ledger.record(month, 1, 1);
        }
        let order: Vec<&str> = ledger.rows().map(|(m, _)| m).collect();
        assert_eq!(order, vec!["Oct-21", "Nov-21", "Dec-21"]);
    }

    #[test]
    fn unknown_month_is_none() {
        assert_eq!(AdoptionLedger::default().month("Jan-22"), None);
    }

    #[test]
    fn drift_rows_count_checks_and_detections() {
        let mut ledger = AdoptionLedger::default();
        ledger.record_drift("Oct-21", false);
        ledger.record_drift("Oct-21", true);
        ledger.record_drift("Oct-21", false);
        let m = ledger.month("Oct-21").unwrap();
        assert_eq!(m.drift_checks, 3);
        assert_eq!(m.drift_detected, 1);
        // Drift rows live beside the Table 1 counters, not instead.
        assert_eq!(m.unique_instances, 0);
        ledger.record("Oct-21", 1, 1);
        assert_eq!(ledger.month("Oct-21").unwrap().unique_instances, 1);
        assert_eq!(ledger.rows().count(), 1);
    }

    #[test]
    fn roll_rows_count_rolls_and_repriced_customers() {
        let mut ledger = AdoptionLedger::default();
        ledger.record_roll("Oct-21", 12);
        ledger.record_roll("Oct-21", 0);
        let m = ledger.month("Oct-21").unwrap();
        assert_eq!(m.catalog_rolls, 2);
        assert_eq!(m.customers_repriced, 12);
        // Roll rows live beside the Table 1 and drift counters, not instead.
        assert_eq!(m.unique_instances, 0);
        assert_eq!(m.drift_checks, 0);
    }

    #[test]
    fn add_row_folds_field_wise_in_caller_order() {
        let mut ledger = AdoptionLedger::default();
        let row = MonthlyAdoption {
            unique_instances: 2,
            unique_databases: 5,
            recommendations_generated: 7,
            drift_checks: 3,
            drift_detected: 1,
            catalog_rolls: 1,
            customers_repriced: 4,
        };
        ledger.add_row("Nov-21", &row);
        ledger.add_row("Oct-21", &row);
        ledger.add_row("Nov-21", &row);
        let order: Vec<&str> = ledger.rows().map(|(m, _)| m).collect();
        assert_eq!(order, vec!["Nov-21", "Oct-21"]);
        let nov = ledger.month("Nov-21").unwrap();
        assert_eq!(nov.unique_instances, 4);
        assert_eq!(nov.unique_databases, 10);
        assert_eq!(nov.recommendations_generated, 14);
        assert_eq!(nov.drift_checks, 6);
        assert_eq!(nov.drift_detected, 2);
        assert_eq!(nov.catalog_rolls, 2);
        assert_eq!(nov.customers_repriced, 8);
        assert_eq!(*ledger.month("Oct-21").unwrap(), row);
    }

    #[test]
    fn merge_carries_roll_rows() {
        let mut total = AdoptionLedger::default();
        total.record_roll("Oct-21", 3);
        let mut period = AdoptionLedger::default();
        period.record_roll("Oct-21", 4);
        period.record_roll("Nov-21", 1);
        total.merge(&period);
        assert_eq!(total.month("Oct-21").unwrap().catalog_rolls, 2);
        assert_eq!(total.month("Oct-21").unwrap().customers_repriced, 7);
        assert_eq!(total.month("Nov-21").unwrap().catalog_rolls, 1);
    }

    #[test]
    fn merge_carries_drift_rows() {
        let mut total = AdoptionLedger::default();
        total.record_drift("Oct-21", true);
        let mut period = AdoptionLedger::default();
        period.record_drift("Oct-21", true);
        period.record_drift("Nov-21", false);
        total.merge(&period);
        assert_eq!(total.month("Oct-21").unwrap().drift_checks, 2);
        assert_eq!(total.month("Oct-21").unwrap().drift_detected, 2);
        assert_eq!(total.month("Nov-21").unwrap().drift_checks, 1);
        assert_eq!(total.month("Nov-21").unwrap().drift_detected, 0);
    }

    #[test]
    fn merge_sums_matching_months_and_appends_new_ones() {
        let mut total = AdoptionLedger::default();
        total.record("Oct-21", 2, 3);
        let mut period = AdoptionLedger::default();
        period.record("Oct-21", 1, 1);
        period.record("Nov-21", 4, 5);
        total.merge(&period);
        let oct = total.month("Oct-21").unwrap();
        assert_eq!((oct.unique_instances, oct.unique_databases), (2, 3));
        assert_eq!(oct.recommendations_generated, 4);
        assert_eq!(total.month("Nov-21").unwrap().unique_databases, 4);
        let order: Vec<&str> = total.rows().map(|(m, _)| m).collect();
        assert_eq!(order, vec!["Oct-21", "Nov-21"]);
    }
}
