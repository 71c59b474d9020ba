//! Open-loop query arrival processes.
//!
//! TailBench's harness issues requests at a fixed offered load regardless
//! of completion (open loop), which is what makes tail latency meaningful:
//! queueing compounds under interference. Interarrivals are exponential;
//! service demands are log-normal with the app's configured mean and CV.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_types::Cycle;

use crate::apps::AppSpec;

/// One query: when it arrives and how much work it demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Arrival cycle.
    pub arrival: Cycle,
    /// Pure service demand in cycles on an unloaded system (CPU work; the
    /// simulator adds measured memory-stall time on top).
    pub service_cycles: Cycle,
    /// Cache-line touches this query performs.
    pub accesses: u32,
    /// Seed for the query's access pattern.
    pub pattern_seed: u64,
}

/// Generates the query stream of one VM.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: AppSpec,
    rng: SmallRng,
    next_arrival: f64,
    issued: u64,
}

impl ArrivalProcess {
    /// Creates a process for `spec` seeded with `seed`.
    pub fn new(spec: AppSpec, seed: u64) -> Self {
        ArrivalProcess {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            next_arrival: 0.0,
            issued: 0,
        }
    }

    /// The application this process drives.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Queries issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Draws the next query.
    pub fn next_query(&mut self) -> Query {
        // Exponential interarrival at the scaled rate.
        let mean = self.spec.interarrival_cycles();
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        self.next_arrival += -mean * u.ln();

        // Log-normal service demand with the configured mean and CV.
        let cv2 = self.spec.service_cv * self.spec.service_cv;
        let sigma2 = (1.0 + cv2).ln();
        let mu = (self.spec.mean_service_cycles as f64).ln() - sigma2 / 2.0;
        let z = self.standard_normal();
        let service = (mu + sigma2.sqrt() * z).exp();
        let service_cycles = service.max(100.0) as Cycle;

        let accesses = (service / 1000.0 * self.spec.accesses_per_kilocycle).max(1.0) as u32;
        self.issued += 1;
        Query {
            arrival: self.next_arrival as Cycle,
            service_cycles,
            accesses,
            pattern_seed: self.rng.gen(),
        }
    }

    fn standard_normal(&mut self) -> f64 {
        // Box–Muller.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AppSpec {
        AppSpec::by_name("silo").unwrap()
    }

    #[test]
    fn arrivals_are_monotonic() {
        let mut p = ArrivalProcess::new(spec(), 1);
        let mut last = 0;
        for _ in 0..1000 {
            let q = p.next_query();
            assert!(q.arrival >= last);
            last = q.arrival;
        }
    }

    #[test]
    fn arrival_rate_matches_qps() {
        let mut p = ArrivalProcess::new(spec(), 2);
        let horizon = 50_000_000; // 25 ms at 2 GHz
        let mut n = 0.0;
        while p.next_query().arrival < horizon {
            n += 1.0;
        }
        let expected = horizon as f64 / spec().interarrival_cycles();
        assert!(
            (n - expected).abs() / expected < 0.1,
            "got {n}, expected ≈{expected}"
        );
    }

    #[test]
    fn mean_service_matches_spec() {
        let mut p = ArrivalProcess::new(spec(), 3);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.next_query().service_cycles).sum();
        let mean = total as f64 / n as f64;
        let expected = spec().mean_service_cycles as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn service_demand_varies() {
        let mut p = ArrivalProcess::new(spec(), 4);
        let a = p.next_query().service_cycles;
        let b = p.next_query().service_cycles;
        let c = p.next_query().service_cycles;
        assert!(a != b || b != c, "log-normal should vary");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut p1 = ArrivalProcess::new(spec(), 7);
        let mut p2 = ArrivalProcess::new(spec(), 7);
        for _ in 0..100 {
            assert_eq!(p1.next_query(), p2.next_query());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut p1 = ArrivalProcess::new(spec(), 1);
        let mut p2 = ArrivalProcess::new(spec(), 2);
        let same = (0..20)
            .filter(|_| p1.next_query() == p2.next_query())
            .count();
        assert!(same < 20);
    }

    #[test]
    fn accesses_scale_with_service() {
        let mut p = ArrivalProcess::new(spec(), 5);
        for _ in 0..100 {
            let q = p.next_query();
            let expected = q.service_cycles as f64 / 1000.0 * spec().accesses_per_kilocycle;
            assert!((q.accesses as f64 - expected).abs() <= expected * 0.5 + 2.0);
        }
    }
}
