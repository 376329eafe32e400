//! The pipeline's branch predictor against an in-order reference.
//!
//! Every pipeline record carries two mispredict rates per retired
//! conditional branch: the core's own (`mispredict_rate`), and that of
//! an in-order twin of its predictor fed the retired branch stream one
//! branch at a time (`replay_mispredict_rate`). With exact per-branch
//! history repair the core predicts from the same history the twin
//! does; only training that lags behind branches still in flight
//! separates them. A history-repair bug shows up here as a gap of tens
//! of points: resetting speculative history to the retired history on
//! every squash made Dhrystone mispredict about 32% of its branches
//! against the replay's 3%.

use straight_core::experiment::{ExperimentId, RunParams};
use straight_core::lab::LabSession;

/// Largest allowed excess of the core's rate over the replay's, in
/// mispredicts per retired branch. At `--quick` scale the largest gap
/// over fig11/fig12/fig14 is 0.004 (CoreMark, SS-4way, gshare).
const MARGIN: f64 = 0.01;

#[test]
fn pipeline_mispredict_rate_stays_near_the_in_order_replay() {
    let session = LabSession::builder().jobs(2).build().unwrap();
    let ids = [ExperimentId::Fig11, ExperimentId::Fig12, ExperimentId::Fig14];
    let runs = session.run(&ids, RunParams::quick()).unwrap();
    let mut checked = 0;
    for cell in runs.iter().flat_map(|run| &run.result.cells) {
        let stats = cell.stats.as_ref().expect("fig11/fig12/fig14 cells run the pipeline");
        assert!(stats.branches > 1000, "{}: {} retired branches", cell.id, stats.branches);
        let (rate, replay) = (stats.mispredict_rate(), stats.replay_mispredict_rate());
        assert!(replay > 0.0, "{}: the replay never mispredicted", cell.id);
        assert!(
            rate <= replay + MARGIN,
            "{}: the pipeline mispredicts {:.1}% of retired branches, its in-order replay {:.1}%",
            cell.id,
            100.0 * rate,
            100.0 * replay
        );
        checked += 1;
    }
    assert_eq!(checked, 18);
}
