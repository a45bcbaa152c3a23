//! The host-time timer behind the `hotpath` bench.
//!
//! Each row makes one untimed warm-up call, then `sample_size` timed
//! calls, and prints their mean as one stdout line. Rows whose group
//! declared a walk count also feed the walks-per-second headline the
//! bench prints to stderr at the end.

use std::hint::black_box;
use std::time::Instant;

use hpmp_trace::{walks_per_sec, HostExperiment, HostProfile};

/// Everything the bench has timed so far, owned by its `main`: one
/// [`HostExperiment`] per walk-counting row, named `group/row`, with the
/// walks and host nanoseconds of its timed calls.
#[derive(Debug, Default)]
pub struct Timer {
    rows: Vec<HostExperiment>,
}

impl Timer {
    /// Starts the group `name`, whose rows each time `sample_size` calls
    /// (at least one).
    pub fn group<'a>(&'a mut self, name: &'a str, sample_size: u64) -> TimerGroup<'a> {
        TimerGroup {
            timer: self,
            name,
            sample_size: sample_size.max(1),
            walks: None,
        }
    }

    /// Total walks over total timed host seconds of the walk-counting rows,
    /// or `None` when no row counted walks.
    fn headline(&self) -> Option<String> {
        let profile = HostProfile {
            name: "bench".into(),
            experiments: self.rows.clone(),
            ..HostProfile::default()
        };
        (profile.total_walks() > 0).then(|| profile.headline())
    }

    /// Prints the walks/sec headline to **stderr**, which keeps the host
    /// clock out of any byte-compared stdout stream.
    pub fn print_walks_headline(&self) {
        if let Some(line) = self.headline() {
            eprintln!("{line}");
        }
    }
}

/// A named group of rows sharing a sample size and, once declared, a
/// walk count per call.
#[derive(Debug)]
pub struct TimerGroup<'a> {
    timer: &'a mut Timer,
    name: &'a str,
    sample_size: u64,
    walks: Option<u64>,
}

impl TimerGroup<'_> {
    /// Declares that each call of the rows timed from here on retires
    /// `walks` page walks: their lines gain a walks/sec rate, and they feed
    /// the headline.
    pub fn walks(&mut self, walks: u64) -> &mut Self {
        self.walks = Some(walks);
        self
    }

    /// Times `f`: one untimed warm-up call, then `sample_size` timed calls,
    /// printed as `bench {group}/{name}: N ns/iter (I iters[, W walks/sec])`.
    pub fn row<O>(&mut self, name: &str, mut f: impl FnMut() -> O) {
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.sample_size {
            black_box(f());
        }
        let iters = self.sample_size;
        let per_iter = (start.elapsed().as_nanos() / u128::from(iters)) as u64;
        let group = self.name;
        let Some(walks) = self.walks else {
            println!("bench {group}/{name}: {per_iter} ns/iter ({iters} iters)");
            return;
        };
        let rate = walks_per_sec(walks, per_iter);
        println!("bench {group}/{name}: {per_iter} ns/iter ({iters} iters, {rate} walks/sec)");
        self.timer.rows.push(HostExperiment {
            name: format!("{group}/{name}"),
            wall_ns: per_iter.saturating_mul(iters),
            walks: walks.saturating_mul(iters),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_makes_one_warm_up_call_then_sample_size_timed_calls() {
        let mut timer = Timer::default();
        let mut calls = 0u64;
        timer.group("test", 5).row("counting", || calls += 1);
        assert_eq!(calls, 6);
        let mut calls = 0u64;
        timer.group("test", 0).row("clamped", || calls += 1);
        assert_eq!(calls, 2, "a zero sample size times one call");
    }

    #[test]
    fn the_headline_sums_only_the_walk_counting_rows() {
        let mut timer = Timer::default();
        assert_eq!(timer.headline(), None, "no row counted walks");
        let mut group = timer.group("recorded", 2);
        group.row("uncounted", || ());
        group.walks(4_242).row("noop", || ());
        group.walks(8).row("noop2", || ());
        let names: Vec<&str> = timer.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["recorded/noop", "recorded/noop2"]);
        let walks: Vec<u64> = timer.rows.iter().map(|r| r.walks).collect();
        assert_eq!(
            walks,
            [2 * 4_242, 2 * 8],
            "walks per call times the sample size"
        );

        timer.rows = vec![
            HostExperiment {
                name: "a/x".into(),
                wall_ns: 4_000,
                walks: 30,
            },
            HostExperiment {
                name: "a/y".into(),
                wall_ns: 6_000,
                walks: 20,
            },
        ];
        assert_eq!(
            timer.headline().as_deref(),
            Some("bench: 50 walks in 0.000 s host time -> 5000000 walks/sec")
        );
    }
}
