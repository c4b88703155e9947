//! Matrix expansion: the cross-product of the `[matrix]` axes minus
//! the `[exclude]` constraints, each cell materialized as a fully
//! seeded, deterministic [`Scenario`].
//!
//! Expansion order is deterministic and independent of everything but
//! the document: axes iterate in declaration order with the **last**
//! axis fastest (odometer order), and a cell's id is its axis
//! assignments joined in declaration order — `mode=sync,layout=opt,...`.
//! Reports sort by expansion index, never by completion time.

use crate::dsl::{DslError, RawPair};
use crate::scenario::{CampaignSpec, CellSettings};
use cfpd_core::Scenario;

/// One expanded matrix cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Position in expansion order (the report's sort key).
    pub index: usize,
    /// Canonical id: `key=value` per axis, joined with `,` in axis
    /// declaration order; `base` when the campaign has no axes.
    pub id: String,
    /// The axis assignment of this cell, in declaration order.
    pub axes: Vec<(String, String)>,
    /// The fully materialized run request.
    pub scenario: Scenario,
}

/// Number of cells the axes produce before exclusion: at most
/// [`crate::MAX_MATRIX_CELLS`] for a spec `CampaignSpec::from_doc`
/// accepted.
pub fn full_matrix_size(spec: &CampaignSpec) -> usize {
    spec.axes.iter().map(|a| a.values.len()).product()
}

fn excluded(spec: &CampaignSpec, assignment: &[(String, String)]) -> bool {
    spec.excludes.iter().any(|group| {
        group.iter().all(|c| {
            assignment.iter().any(|(k, v)| *k == c.key && *v == c.value)
        })
    })
}

/// Expand the campaign into its cells. Errors only on value
/// re-validation (which `CampaignSpec::from_doc` already guarantees
/// passes, so callers can treat an `Err` as a bug).
pub fn expand(spec: &CampaignSpec) -> Result<Vec<Cell>, DslError> {
    let mut base = CellSettings::default();
    for p in &spec.base {
        base.apply(p)?;
    }

    if spec.axes.is_empty() {
        return Ok(vec![Cell {
            index: 0,
            id: "base".to_string(),
            axes: Vec::new(),
            scenario: base.to_scenario(),
        }]);
    }

    let total = full_matrix_size(spec);
    let mut cells = Vec::new();
    // Odometer over axis value indices, last axis fastest.
    let mut odo = vec![0usize; spec.axes.len()];
    for _ in 0..total {
        let assignment: Vec<(String, String)> = spec
            .axes
            .iter()
            .zip(&odo)
            .map(|(a, &i)| (a.key.clone(), a.values[i].clone()))
            .collect();
        if !excluded(spec, &assignment) {
            let mut settings = base.clone();
            for (axis, &i) in spec.axes.iter().zip(&odo) {
                settings.apply(&RawPair {
                    key: axis.key.clone(),
                    value: axis.values[i].clone(),
                    line: axis.line,
                })?;
            }
            let id = assignment
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            cells.push(Cell {
                index: cells.len(),
                id,
                axes: assignment,
                scenario: settings.to_scenario(),
            });
        }
        // Tick the odometer.
        for d in (0..odo.len()).rev() {
            odo[d] += 1;
            if odo[d] < spec.axes[d].values.len() {
                break;
            }
            odo[d] = 0;
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpd_core::ExecutionMode;

    const DOC: &str = "\
[campaign]
name = t

[scenario]
ranks = 2
generations = 1
particles = 40
steps = 1

[matrix]
mode = sync, coupled:1+1
layout = default, opt
dlb = off, on
";

    #[test]
    fn expansion_is_the_cross_product_in_odometer_order() {
        let spec = CampaignSpec::from_text(DOC).unwrap();
        let cells = expand(&spec).unwrap();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].id, "mode=sync,layout=default,dlb=off");
        assert_eq!(cells[1].id, "mode=sync,layout=default,dlb=on");
        assert_eq!(cells[7].id, "mode=coupled:1+1,layout=opt,dlb=on");
        assert_eq!(
            cells[7].scenario.config.mode,
            ExecutionMode::Coupled { fluid: 1, particles: 1 }
        );
        assert!(cells[7].scenario.opts.dlb);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn excludes_drop_matching_cells() {
        let doc = format!("{DOC}\n[exclude]\nmode = coupled:1+1\nlayout = opt\n");
        let spec = CampaignSpec::from_text(&doc).unwrap();
        let cells = expand(&spec).unwrap();
        // 8 minus the 2 cells with (coupled, opt): dlb off and on.
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| !c.id.contains("mode=coupled:1+1,layout=opt")));
    }

    #[test]
    fn no_axes_means_one_base_cell() {
        let spec =
            CampaignSpec::from_text("[campaign]\nname = solo\n[scenario]\nranks = 2\n").unwrap();
        let cells = expand(&spec).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].id, "base");
    }
}
