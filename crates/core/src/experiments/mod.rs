//! One driver per paper table and figure (see DESIGN.md §5).
//!
//! Every driver takes a [`Lab`] — the shared experimental setup holding the
//! two simulated GPUs, the GA100-trained pipeline and the per-application
//! measured/predicted profiles — and returns a typed, serializable report
//! with a `render()` method that prints the paper's rows/series.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod training_fit;

use crate::pipeline::TrainedPipeline;
use crate::predictor::{measured_profile, PredictedProfile};
use gpu_model::PhasedWorkload;
use rayon::prelude::*;
use std::collections::BTreeMap;
use telemetry::{GpuBackend, SimulatorBackend};

/// The shared experimental setup: simulated devices, the trained pipeline,
/// the six evaluation applications, and their measured/predicted profiles
/// on both architectures.
pub struct Lab {
    /// The Ampere device the models are trained on.
    pub ga100: SimulatorBackend,
    /// The Volta device used for the portability study.
    pub gv100: SimulatorBackend,
    /// The GA100-trained pipeline (models + campaign data).
    pub pipeline: TrainedPipeline,
    /// The six real applications (paper Table 2).
    pub apps: Vec<PhasedWorkload>,
    /// Measured per-frequency profiles on GA100, by application.
    pub measured_ga100: BTreeMap<String, PredictedProfile>,
    /// Model-predicted profiles on GA100, by application.
    pub predicted_ga100: BTreeMap<String, PredictedProfile>,
    /// Measured profiles on GV100.
    pub measured_gv100: BTreeMap<String, PredictedProfile>,
    /// Predicted profiles on GV100 (same GA100-trained models).
    pub predicted_gv100: BTreeMap<String, PredictedProfile>,
}

impl Lab {
    /// Builds the full paper setup: every used DVFS state (61 on GA100,
    /// 117 on GV100), three runs per point, all 21 training benchmarks.
    /// Takes ~5.3 s on a 2-vCPU Xeon (2.1 GHz), almost all of it the two
    /// network fits.
    pub fn paper() -> Self {
        Self::with_stride(1)
    }

    /// Builds a reduced setup that subsamples the training grid — same
    /// code paths, faster; used by tests.
    pub fn with_stride(stride: usize) -> Self {
        obs::span!("lab");
        let ga100 = SimulatorBackend::ga100();
        let gv100 = SimulatorBackend::gv100();
        let pipeline = TrainedPipeline::train_on(&ga100, stride);
        let apps = kernels::apps::evaluation_apps();

        obs::span!("evaluation");
        // One trained model pair serves every application on both devices:
        // the two predictors below borrow `pipeline.models` and are reused
        // across the whole sweep. Applications are independent (the
        // simulator's pure profiling path touches no device state), so the
        // four profiles per app are computed in parallel across the rayon
        // pool; results are keyed by name, making the maps order-free.
        let predictor_ga = pipeline.predictor(ga100.spec().clone());
        let predictor_gv = pipeline.predictor(gv100.spec().clone());
        // Each per-app evaluation (4 profile sweeps) is one complete
        // event on the trace timeline, tagged with the app name.
        let trace_eval = obs::trace::intern("lab.evaluate_app");
        let trace_arg_app = obs::trace::intern("app");
        let evaluated: Vec<_> = apps
            .par_iter()
            .map(|app| {
                let t0 = obs::trace::now_ns();
                let row = (
                    app.name.clone(),
                    measured_profile(&ga100, app),
                    predictor_ga.predict_online(&ga100, app),
                    measured_profile(&gv100, app),
                    predictor_gv.predict_online(&gv100, app),
                );
                obs::trace::complete(
                    trace_eval,
                    t0,
                    &[(
                        trace_arg_app,
                        obs::trace::ArgValue::Str(obs::trace::intern(&app.name)),
                    )],
                );
                row
            })
            .collect();
        let mut measured_ga100 = BTreeMap::new();
        let mut predicted_ga100 = BTreeMap::new();
        let mut measured_gv100 = BTreeMap::new();
        let mut predicted_gv100 = BTreeMap::new();
        for (name, m_ga, p_ga, m_gv, p_gv) in evaluated {
            measured_ga100.insert(name.clone(), m_ga);
            predicted_ga100.insert(name.clone(), p_ga);
            measured_gv100.insert(name.clone(), m_gv);
            predicted_gv100.insert(name, p_gv);
        }
        Self {
            ga100,
            gv100,
            pipeline,
            apps,
            measured_ga100,
            predicted_ga100,
            measured_gv100,
            predicted_gv100,
        }
    }

    /// Application names in the paper's order.
    pub fn app_names(&self) -> Vec<String> {
        self.apps.iter().map(|a| a.name.clone()).collect()
    }
}

#[cfg(test)]
pub(crate) mod testlab {
    use super::Lab;
    use std::sync::OnceLock;

    /// One shared Lab for all experiment tests: training is the expensive
    /// part, so do it once. Stride 2 keeps full qualitative behaviour.
    pub fn shared() -> &'static Lab {
        static LAB: OnceLock<Lab> = OnceLock::new();
        LAB.get_or_init(|| Lab::with_stride(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_profiles_cover_both_grids() {
        let lab = testlab::shared();
        assert_eq!(lab.apps.len(), 6);
        for name in lab.app_names() {
            assert_eq!(lab.measured_ga100[&name].frequencies.len(), 61);
            assert_eq!(lab.predicted_ga100[&name].frequencies.len(), 61);
            assert_eq!(lab.measured_gv100[&name].frequencies.len(), 117);
            assert_eq!(lab.predicted_gv100[&name].frequencies.len(), 117);
        }
    }
}
