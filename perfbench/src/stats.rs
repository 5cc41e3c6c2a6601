//! Order statistics and the seeded shuffle of the query mix.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The Harrell–Davis estimate of quantile `p` in `(0, 1)`: a weighted mean
/// of every order statistic, with Beta(p(n+1), (1-p)(n+1)) weights.
/// Latencies come in modes (a query's wall time steps with the program's
/// poll intervals), and where the sample quantile jumps from one mode to
/// the next as their proportions drift, this estimate moves smoothly.
pub fn hd_quantile(values: &[f64], p: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return quantile(values, p);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = incomplete_beta((i + 1) as f64 / n as f64, a, b);
        estimate += (upto - below) * x;
        below = upto;
    }
    estimate
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = C[1..]
        .iter()
        .enumerate()
        .map(|(i, c)| c / (x + 1.0 + i as f64))
        .sum();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + (C[0] + series).ln()
}

/// The regularized incomplete beta function I_x(a, b).
fn incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// A small deterministic generator (xorshift64*) for the mix order.
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under benchmark seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng((seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(stream * 2 + 1) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        // symmetric samples: the median estimate is the centre
        let values: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((hd_quantile(&values, 0.5) - 5.0).abs() < 1e-9);
        // the weights sum to one, so a constant sample is its own quantile
        assert!((hd_quantile(&[7.0; 40], 0.9) - 7.0).abs() < 1e-9);
        // two modes: the estimate moves with their proportions, staying
        // between them
        let mut modes = vec![100.0; 60];
        modes.extend([120.0; 40]);
        let estimate = hd_quantile(&modes, 0.5);
        assert!(estimate > 100.0 && estimate < 120.0, "{estimate}");
        assert!((incomplete_beta(0.3, 2.0, 3.0) - 0.3483).abs() < 1e-4);
    }

    #[test]
    fn shuffle_is_seeded() {
        let shuffled = |seed| {
            let mut items: Vec<u32> = (0..10).collect();
            Rng::new(seed, 0).shuffle(&mut items);
            items
        };
        assert_eq!(shuffled(3), shuffled(3));
        assert_ne!(shuffled(3), shuffled(4));
    }
}
