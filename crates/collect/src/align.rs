//! Data normalization: ordering, linear interpolation onto a uniform grid,
//! and sliding moving-average smoothing (paper §3.2 "Data Normalization").
//!
//! The arithmetic lives once, in two per-grid-point bodies
//! (`interpolate_at`, `smooth_at`). The batch functions
//! ([`interpolate_grid`], [`moving_average`]) map them over a whole grid;
//! the controller's read side (`GridCache`, over the TSDB's IMU rows)
//! calls the same bodies for the grid points a read has to (re)compute,
//! so its output is the batch output by construction.

use darnet_sim::ImuSample;

use crate::controller::AlignedImuPoint;
use crate::tsdb::Series;

/// A uniform sampling grid `start, start + 1/hz, ...` up to `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// First grid point, seconds.
    pub start: f64,
    /// Last grid point (inclusive bound), seconds.
    pub end: f64,
    /// Grid frequency, Hz (the paper's IMU pipeline uses 4 Hz).
    pub hz: f64,
}

impl GridSpec {
    /// The most points a grid may hold (at the paper's 4 Hz, seven weeks
    /// of driving). `hz` is a public configuration value; a grid past
    /// this bound is treated like any other degenerate grid — empty —
    /// instead of asking the allocator for it.
    const MAX_POINTS: usize = 1 << 24;

    /// Number of grid points: zero for a degenerate grid (see
    /// [`GridSpec::points`]).
    pub(crate) fn len(&self) -> usize {
        let finite = self.start.is_finite() && self.end.is_finite() && self.hz.is_finite();
        if !finite || self.hz <= 0.0 || self.end < self.start {
            return 0;
        }
        let intervals = ((self.end - self.start) / (1.0 / self.hz)).floor();
        // The span can overflow to infinity, and ∞ ÷ ∞ (a denormal rate)
        // is NaN.
        if intervals.is_nan() || intervals >= Self::MAX_POINTS as f64 {
            return 0;
        }
        intervals as usize + 1
    }

    /// Grid timestamp `i`.
    pub(crate) fn point(&self, i: usize) -> f64 {
        self.start + i as f64 * (1.0 / self.hz)
    }

    /// The grid timestamps. A degenerate grid is empty: `start`, `end` or
    /// `hz` not finite, `hz` not positive, `end < start`, or more than
    /// 2^24 points asked for.
    pub fn points(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.point(i)).collect()
    }
}

/// Writes the interpolated value at grid time `g` into `out`, one value
/// per channel. `at(k)` is the `k`-th of `len > 0` observations —
/// `(timestamp, channel values)` — in `(timestamp, arrival)` order; `hi`
/// is the bracket cursor — on return the first observation in that order
/// not before `g` — and must be carried from one grid point to the next
/// in grid order (it only moves forward). Outside the observation span
/// the nearest observation is returned (no extrapolation).
#[inline]
fn interpolate_at<'a>(
    at: impl Fn(usize) -> (f64, &'a [f32]),
    len: usize,
    hi: &mut usize,
    g: f64,
    out: &mut [f32],
) {
    while *hi < len && at(*hi).0 < g {
        *hi += 1;
    }
    if *hi == 0 || *hi == len {
        let (_, nearest) = at(if *hi == 0 { 0 } else { len - 1 });
        for (o, &v) in out.iter_mut().zip(nearest) {
            *o = v;
        }
        return;
    }
    let (t0, v0) = at(*hi - 1);
    let (t1, v1) = at(*hi);
    let w = if (t1 - t0).abs() < 1e-12 {
        0.0
    } else {
        ((g - t0) / (t1 - t0)) as f32
    };
    for ((o, &a), &b) in out.iter_mut().zip(v0).zip(v1) {
        *o = a * (1.0 - w) + b * w;
    }
}

/// Writes row `i` of the moving average of `series`, which must hold rows
/// `0..=i`, into `out`: the mean of row `i` and the `window - 1` rows
/// before it (as many as exist). A window of 0 or 1 is the row itself.
#[inline]
fn smooth_at<R: AsRef<[f32]>>(series: &[R], i: usize, window: usize, out: &mut [f32]) {
    if window <= 1 {
        for (o, &v) in out.iter_mut().zip(series[i].as_ref()) {
            *o = v;
        }
        return;
    }
    let rows = &series[i.saturating_sub(window - 1)..=i];
    let count = rows.len() as f32;
    out.fill(0.0);
    for row in rows {
        for (a, &v) in out.iter_mut().zip(row.as_ref()) {
            *a += v;
        }
    }
    for a in out {
        *a /= count;
    }
}

/// Linearly interpolates irregular `(t, value)` observations onto `grid`.
///
/// * Observations are sorted internally — out-of-order network delivery is
///   tolerated (the controller "relies on the timestamp associated with
///   each tuple to determine the ordering").
/// * Grid points outside the observation span are clamped to the nearest
///   observation (no extrapolation).
/// * Multi-channel values are interpolated channel-wise.
///
/// Returns one vector per grid point; empty output if there are no
/// observations.
pub fn interpolate_grid(observations: &[(f64, Vec<f32>)], grid: &GridSpec) -> Vec<Vec<f32>> {
    if observations.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<&(f64, Vec<f32>)> = observations.iter().collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let at = |k: usize| (sorted[k].0, sorted[k].1.as_slice());
    let channels = sorted[0].1.len();
    let mut hi = 0usize;
    (0..grid.len())
        .map(|i| {
            let mut row = vec![0.0; channels];
            interpolate_at(at, sorted.len(), &mut hi, grid.point(i), &mut row);
            row
        })
        .collect()
}

/// Sliding moving average with a centered-causal window of `window`
/// samples (the current sample and the `window - 1` preceding ones). The
/// paper: *"the controller performs a smoothing operation on the data by
/// maintaining a sliding moving average"* to absorb commodity-sensor
/// aberrations.
///
/// `window == 0` or `1` returns the input unchanged.
pub fn moving_average(series: &[Vec<f32>], window: usize) -> Vec<Vec<f32>> {
    (0..series.len())
        .map(|i| {
            let mut row = vec![0.0; series[0].len()];
            smooth_at(series, i, window, &mut row);
            row
        })
        .collect()
}

/// The aligned grid of a row series (a TSDB [`Series`]: the stable sort
/// [`interpolate_grid`] does, kept by the store at insert), kept between
/// reads so that a read pays for what arrived since the previous one.
///
/// Derived state: everything here is a function of the rows and the two
/// configuration values, and [`GridCache::read`] returns exactly
/// `moving_average(interpolate_grid(rows, grid), window)` over the rows'
/// time span, zipped with the grid's points — it runs the same per-point
/// bodies, over the grid points the rows written since can have changed.
/// Rows are [`ImuSample::FEATURES`] wide, so every kept row is an array
/// and a grid point costs no allocation of its own.
#[derive(Debug)]
pub(crate) struct GridCache {
    hz: f64,
    window: usize,
    /// Per cached grid point, where the bracket cursor stood after it. A
    /// point read rows `hi - 1` and `hi` and nothing past them, so it
    /// survives a row written at any slot above `hi`.
    bracket: Vec<usize>,
    interpolated: Vec<[f32; ImuSample::FEATURES]>,
    smoothed: Vec<AlignedImuPoint>,
}

impl GridCache {
    pub(crate) fn new(hz: f64, window: usize) -> Self {
        GridCache {
            hz,
            window,
            bracket: Vec::new(),
            interpolated: Vec::new(),
            smoothed: Vec::new(),
        }
    }

    /// The smoothed grid points spanning `rows`, or `None` if the rows
    /// are not [`ImuSample::FEATURES`] wide. `dirty` is the lowest slot
    /// written since the previous read of the same series
    /// (`TsDb::read_rows`): every row below it is where and what it was.
    pub(crate) fn read(&mut self, rows: &Series, dirty: usize) -> Option<&[AlignedImuPoint]> {
        if rows.width() != ImuSample::FEATURES {
            return None;
        }
        let stamps = rows.stamps();
        let grid = GridSpec {
            start: stamps.first().copied().unwrap_or(f64::NAN),
            end: stamps.last().copied().unwrap_or(f64::NAN),
            hz: self.hz,
        };
        // A row older than every other is written at slot 0 and drops the
        // whole grid, whose start it moves; otherwise a grid only shrinks
        // when it degenerates (to empty). The moving average trails, so a
        // smoothed row never depends on a later point and the three
        // prefixes stay valid together.
        let kept = self.bracket.partition_point(|&hi| hi < dirty);
        self.bracket.truncate(kept.min(grid.len()));
        self.interpolated.truncate(self.bracket.len());
        self.smoothed.truncate(self.bracket.len());
        let mut hi = self.bracket.last().copied().unwrap_or(0);
        for i in self.bracket.len()..grid.len() {
            let mut row = [0.0; ImuSample::FEATURES];
            interpolate_at(
                |k| rows.row(k),
                stamps.len(),
                &mut hi,
                grid.point(i),
                &mut row,
            );
            self.bracket.push(hi);
            self.interpolated.push(row);
            let mut point = AlignedImuPoint {
                t: grid.point(i),
                features: [0.0; ImuSample::FEATURES],
            };
            smooth_at(&self.interpolated, i, self.window, &mut point.features);
            self.smoothed.push(point);
        }
        Some(&self.smoothed)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_are_uniform() {
        let grid = GridSpec {
            start: 0.0,
            end: 1.0,
            hz: 4.0,
        };
        let pts = grid.points();
        assert_eq!(pts.len(), 5);
        assert!((pts[1] - 0.25).abs() < 1e-12);
        assert!((pts[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_grid_is_empty() {
        assert!(GridSpec {
            start: 1.0,
            end: 0.0,
            hz: 4.0
        }
        .points()
        .is_empty());
        assert!(GridSpec {
            start: 0.0,
            end: 1.0,
            hz: 0.0
        }
        .points()
        .is_empty());
    }

    #[test]
    fn non_finite_or_unbounded_grids_are_empty_not_a_panic() {
        let grid = |start: f64, end: f64, hz: f64| GridSpec { start, end, hz };
        // NaN passed the old `hz <= 0.0` guard and made one NaN point.
        assert!(grid(0.0, 1.0, f64::NAN).points().is_empty());
        // An infinite rate overflowed `n + 1`.
        assert!(grid(0.0, 1.0, f64::INFINITY).points().is_empty());
        assert!(grid(0.0, 1.0, f64::NEG_INFINITY).points().is_empty());
        assert!(grid(0.0, 1.0, -4.0).points().is_empty());
        // A huge finite rate, or span, asked for an unbounded `Vec`.
        assert!(grid(0.0, 1.0, 1e300).points().is_empty());
        assert!(grid(0.0, 1.0, 1e12).points().is_empty());
        assert!(grid(-1e300, 1e300, 4.0).points().is_empty());
        assert!(grid(0.0, f64::MAX, 4.0).points().is_empty());
        assert!(grid(-f64::MAX, f64::MAX, 5e-324).points().is_empty());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(grid(bad, 1.0, 4.0).points().is_empty());
            assert!(grid(0.0, bad, 4.0).points().is_empty());
        }
        // The bound itself is far from any real session.
        assert_eq!(grid(0.0, 3600.0, 50.0).points().len(), 180_001);
    }

    #[test]
    fn interpolation_recovers_linear_signal_exactly() {
        // f(t) = 2t over irregular samples.
        let obs: Vec<(f64, Vec<f32>)> = [0.0, 0.13, 0.41, 0.77, 1.0]
            .iter()
            .map(|&t| (t, vec![2.0 * t as f32]))
            .collect();
        let grid = GridSpec {
            start: 0.0,
            end: 1.0,
            hz: 10.0,
        };
        let out = interpolate_grid(&obs, &grid);
        for (i, v) in out.iter().enumerate() {
            let t = i as f32 * 0.1;
            assert!((v[0] - 2.0 * t).abs() < 1e-5, "at {t}: {}", v[0]);
        }
    }

    #[test]
    fn interpolation_tolerates_out_of_order_observations() {
        let sorted: Vec<(f64, Vec<f32>)> =
            vec![(0.0, vec![0.0]), (0.5, vec![5.0]), (1.0, vec![10.0])];
        let shuffled: Vec<(f64, Vec<f32>)> =
            vec![(1.0, vec![10.0]), (0.0, vec![0.0]), (0.5, vec![5.0])];
        let grid = GridSpec {
            start: 0.0,
            end: 1.0,
            hz: 4.0,
        };
        assert_eq!(
            interpolate_grid(&sorted, &grid),
            interpolate_grid(&shuffled, &grid)
        );
    }

    #[test]
    fn interpolation_clamps_outside_span() {
        let obs = vec![(0.5, vec![1.0]), (0.6, vec![2.0])];
        let grid = GridSpec {
            start: 0.0,
            end: 1.0,
            hz: 2.0,
        };
        let out = interpolate_grid(&obs, &grid);
        assert_eq!(out[0], vec![1.0]); // before the first observation
        assert_eq!(out[2], vec![2.0]); // after the last
    }

    #[test]
    fn interpolation_is_multichannel() {
        let obs = vec![(0.0, vec![0.0, 10.0]), (1.0, vec![1.0, 0.0])];
        let grid = GridSpec {
            start: 0.5,
            end: 0.5,
            hz: 1.0,
        };
        let out = interpolate_grid(&obs, &grid);
        assert_eq!(out.len(), 1);
        assert!((out[0][0] - 0.5).abs() < 1e-6);
        assert!((out[0][1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn interpolation_bounded_by_observations() {
        // Interpolated values never exceed the observed min/max.
        let obs: Vec<(f64, Vec<f32>)> = (0..20)
            .map(|i| (i as f64 * 0.1, vec![((i * 7) % 5) as f32]))
            .collect();
        let grid = GridSpec {
            start: 0.0,
            end: 1.9,
            hz: 13.0,
        };
        let out = interpolate_grid(&obs, &grid);
        for v in out {
            assert!(v[0] >= 0.0 && v[0] <= 4.0);
        }
    }

    #[test]
    fn moving_average_smooths_a_spike() {
        let series: Vec<Vec<f32>> = vec![
            vec![1.0],
            vec![1.0],
            vec![10.0], // aberration
            vec![1.0],
            vec![1.0],
        ];
        let out = moving_average(&series, 3);
        assert!(out[2][0] < 10.0);
        assert!((out[2][0] - 4.0).abs() < 1e-6); // (1+1+10)/3
        assert!((out[4][0] - 4.0).abs() < 1e-6); // (10+1+1)/3
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let series = vec![vec![3.0], vec![-1.0]];
        assert_eq!(moving_average(&series, 1), series);
        assert_eq!(moving_average(&series, 0), series);
    }

    #[test]
    fn moving_average_of_constant_is_constant() {
        let series = vec![vec![2.5, -1.0]; 10];
        let out = moving_average(&series, 4);
        for row in out {
            assert!((row[0] - 2.5).abs() < 1e-6);
            assert!((row[1] + 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn moving_average_reduces_variance_of_noise() {
        let mut rng = darnet_tensor::SplitMix64::new(3);
        let series: Vec<Vec<f32>> = (0..500).map(|_| vec![rng.normal()]).collect();
        let smooth = moving_average(&series, 5);
        let var = |s: &[Vec<f32>]| {
            let mean = s.iter().map(|v| v[0]).sum::<f32>() / s.len() as f32;
            s.iter().map(|v| (v[0] - mean).powi(2)).sum::<f32>() / s.len() as f32
        };
        assert!(var(&smooth) < var(&series) * 0.5);
    }
}
