//! Small statistics helpers shared by the machine runtimes and the
//! experiment harness.

/// Online accumulator of a scalar series (count / sum / min / max / mean).
#[derive(Clone, Debug, Default)]
pub struct Accum {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Accum {
    pub fn new() -> Accum {
        Accum {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A ratio expressed as `numerator / denominator`, safe for zero denominators.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Percentage helper: `100 * part / whole` (0 when `whole` is 0).
pub fn percent(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_basics() {
        let mut a = Accum::new();
        assert_eq!(a.mean(), 0.0);
        a.add(1.0);
        a.add(3.0);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 4.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn ratios() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(percent(1.0, 4.0), 25.0);
        assert_eq!(percent(3.0, 0.0), 0.0);
    }
}
