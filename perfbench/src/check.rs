//! Answer checks: served replies against the same trained model called
//! in-process, bit for bit.

use std::path::Path;

use atlas_serve::{
    AtlasService, GroupSummary, ModelRegistry, PredictRequest, PredictResponse, ServiceConfig,
};

use crate::MODEL;

/// The watts a reply carries, borrowed from either reply type.
pub struct Watts<'a> {
    pub per_cycle: &'a [f64],
    pub groups: &'a [GroupSummary],
    pub mean: f64,
}

impl<'a> From<&'a PredictResponse> for Watts<'a> {
    fn from(r: &'a PredictResponse) -> Watts<'a> {
        Watts {
            per_cycle: &r.per_cycle_total_w,
            groups: &r.groups,
            mean: r.mean_total_w,
        }
    }
}

impl<'a> From<&'a atlas_serve::PredictDeltaResponse> for Watts<'a> {
    fn from(r: &'a atlas_serve::PredictDeltaResponse) -> Watts<'a> {
        Watts {
            per_cycle: &r.per_cycle_total_w,
            groups: &r.groups,
            mean: r.mean_total_w,
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `None` when `got` equals `want` bit for bit, else what differs.
pub fn mismatch(got: &Watts, want: &Watts) -> Option<String> {
    if bits(got.per_cycle) != bits(want.per_cycle) {
        return Some("per_cycle_total_w differs".to_owned());
    }
    if got.mean.to_bits() != want.mean.to_bits() {
        return Some(format!("mean_total_w {} != {}", got.mean, want.mean));
    }
    let same_groups = got.groups.len() == want.groups.len()
        && got.groups.iter().zip(want.groups).all(|(a, b)| {
            a.group == b.group
                && a.mean_w.to_bits() == b.mean_w.to_bits()
                && a.peak_w.to_bits() == b.peak_w.to_bits()
        });
    (!same_groups).then(|| "groups differ".to_owned())
}

/// Structural checks every reply must pass, whatever the workload.
pub fn well_formed(watts: &Watts, cycles: usize, reply_cycles: usize) -> Option<String> {
    if reply_cycles != cycles || watts.per_cycle.len() != cycles {
        return Some(format!(
            "reply has {reply_cycles} cycles / {} values, asked {cycles}",
            watts.per_cycle.len()
        ));
    }
    let finite = watts.per_cycle.iter().all(|w| w.is_finite() && *w >= 0.0);
    (!finite || !watts.mean.is_finite()).then(|| "non-finite or negative watts".to_owned())
}

/// The reference: the trained model behind an in-process service.
pub fn reference_service(registry: &Path) -> Result<AtlasService, String> {
    let saved = ModelRegistry::open(registry)
        .and_then(|r| r.load(MODEL))
        .map_err(|e| format!("load model: {e}"))?;
    Ok(AtlasService::start(
        saved,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ))
}

/// Answer `requests` in-process, two at a time.
pub fn call_all(
    service: &AtlasService,
    requests: Vec<PredictRequest>,
) -> Vec<Result<PredictResponse, String>> {
    let pending: Vec<_> = requests.into_iter().map(|r| service.submit(r)).collect();
    pending
        .into_iter()
        .map(|rx| match rx.recv() {
            Ok(Ok(resp)) => Ok(resp),
            Ok(Err((_, e))) => Err(e.to_string()),
            Err(_) => Err("service shut down".to_owned()),
        })
        .collect()
}

/// Indices of `k` samples spread evenly over `n` items.
pub fn spread(n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut picks: Vec<usize> = (0..k).map(|j| j * n / k.max(1)).collect();
    picks.dedup();
    picks
}
