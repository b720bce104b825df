//! The six applications behind one interface: seeded configurations, a
//! run on any runtime, and the serial trace the simulators replay.

use crate::TINY;
use jade::apps::{cholesky, halo, ocean, pagerank, string_app, water};
use jade::core::{JadeRuntime, Trace, TraceRuntime};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Water,
    String,
    Ocean,
    Cholesky,
    Pagerank,
    Halo,
}

/// One application's workload configuration.
#[derive(Clone, Debug)]
pub enum Config {
    Water(water::WaterConfig),
    String(string_app::StringConfig),
    Ocean(ocean::OceanConfig),
    Cholesky(cholesky::CholeskyConfig),
    Pagerank(pagerank::PagerankConfig),
    Halo(halo::HaloConfig),
}

/// One application's numeric result; `==` is bit-exact on every field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Output {
    Water(water::WaterOutput),
    String(string_app::StringOutput),
    Ocean(ocean::OceanOutput),
    Cholesky(cholesky::CholeskyOutput),
    Pagerank(pagerank::PagerankOutput),
    Halo(halo::HaloOutput),
}

/// The fixed decomposition of the thread workload: traces and task counts
/// do not change with the number of workers that run them.
pub const THREAD_PROCS: usize = 8;

impl App {
    pub const ALL: [App; 6] = [
        App::Water,
        App::String,
        App::Ocean,
        App::Cholesky,
        App::Pagerank,
        App::Halo,
    ];

    /// The name used in metric names (`crate::metrics::APPS`).
    pub fn key(self) -> &'static str {
        crate::metrics::APPS[self as usize]
    }

    /// The thread workload's configuration: the paper's data sets, 8-way
    /// decomposed, with iteration counts and sizes set through the public
    /// config fields so that every application runs 100-200 ms on one
    /// worker of the reference host and six of them fit a pass of about a
    /// second.
    pub fn thread_config(self, seed: u64) -> Config {
        let p = THREAD_PROCS;
        if TINY {
            return self.tiny(p, seed);
        }
        match self {
            App::Water => Config::Water(water::WaterConfig {
                iterations: 4,
                seed,
                ..water::WaterConfig::paper(p)
            }),
            App::String => Config::String(string_app::StringConfig {
                iterations: 4,
                ..string_app::StringConfig::paper(p)
            }),
            App::Ocean => Config::Ocean(ocean::OceanConfig {
                iterations: 150,
                ..ocean::OceanConfig::paper(p)
            }),
            App::Cholesky => Config::Cholesky(cholesky::CholeskyConfig {
                grid: 114,
                ..cholesky::CholeskyConfig::paper(p)
            }),
            App::Pagerank => Config::Pagerank(pagerank::PagerankConfig {
                nodes: 32768,
                edges_per_node: 8,
                iterations: 40,
                seed,
                ..pagerank::PagerankConfig::paper(p)
            }),
            App::Halo => Config::Halo(halo::HaloConfig {
                tile: 64,
                iterations: 110,
                seed,
                ..halo::HaloConfig::paper(p)
            }),
        }
    }

    /// The simulator workloads' configuration: the paper's data set for
    /// `procs` processors, with the seeded generators reseeded.
    pub fn sim_config(self, procs: usize, seed: u64) -> Config {
        if TINY {
            return self.tiny(procs, seed);
        }
        match self {
            App::Water => Config::Water(water::WaterConfig {
                seed,
                ..water::WaterConfig::paper(procs)
            }),
            App::String => Config::String(string_app::StringConfig::paper(procs)),
            App::Ocean => Config::Ocean(ocean::OceanConfig::paper(procs)),
            App::Cholesky => Config::Cholesky(cholesky::CholeskyConfig::paper(procs)),
            App::Pagerank => Config::Pagerank(pagerank::PagerankConfig {
                seed,
                ..pagerank::PagerankConfig::paper(procs)
            }),
            App::Halo => Config::Halo(halo::HaloConfig {
                seed,
                ..halo::HaloConfig::paper(procs)
            }),
        }
    }

    fn tiny(self, procs: usize, seed: u64) -> Config {
        match self {
            App::Water => Config::Water(water::WaterConfig {
                seed,
                ..water::WaterConfig::small(procs)
            }),
            App::String => Config::String(string_app::StringConfig::small(procs)),
            // `OceanConfig::small` has fewer grid columns than a
            // 32-processor decomposition has blocks.
            App::Ocean => Config::Ocean(ocean::OceanConfig {
                n: 96,
                iterations: 4,
                procs,
            }),
            App::Cholesky => Config::Cholesky(cholesky::CholeskyConfig::small(procs)),
            // More nodes than `small`: one per partition at 32 processors.
            App::Pagerank => Config::Pagerank(pagerank::PagerankConfig {
                nodes: 256,
                seed,
                ..pagerank::PagerankConfig::small(procs)
            }),
            App::Halo => Config::Halo(halo::HaloConfig {
                seed,
                ..halo::HaloConfig::small(procs)
            }),
        }
    }

    /// Seconds of compute per abstract operation on DASH, so that the
    /// one-processor run lands on the paper's stripped serial time.
    pub fn dash_sec_per_op(self, trace: &Trace) -> f64 {
        let stripped = match self {
            App::Water => water::calib::DASH_STRIPPED_S,
            App::String => string_app::calib::DASH_STRIPPED_S,
            App::Ocean => ocean::calib::DASH_STRIPPED_S,
            App::Cholesky => cholesky::calib::DASH_STRIPPED_S,
            App::Pagerank => pagerank::calib::DASH_STRIPPED_S,
            App::Halo => halo::calib::DASH_STRIPPED_S,
        };
        stripped / trace.total_work()
    }

    /// The same for the iPSC/860.
    pub fn ipsc_sec_per_op(self, trace: &Trace) -> f64 {
        let stripped = match self {
            App::Water => water::calib::IPSC_STRIPPED_S,
            App::String => string_app::calib::IPSC_STRIPPED_S,
            App::Ocean => ocean::calib::IPSC_STRIPPED_S,
            App::Cholesky => cholesky::calib::IPSC_STRIPPED_S,
            App::Pagerank => pagerank::calib::IPSC_STRIPPED_S,
            App::Halo => halo::calib::IPSC_STRIPPED_S,
        };
        stripped / trace.total_work()
    }
}

impl Config {
    /// Build the program on `rt`, run it to completion, read its result.
    pub fn run_on<R: JadeRuntime>(&self, rt: &mut R) -> Output {
        match self {
            Config::Water(c) => Output::Water(water::run_on(rt, c)),
            Config::String(c) => Output::String(string_app::run_on(rt, c)),
            Config::Ocean(c) => Output::Ocean(ocean::run_on(rt, c)),
            Config::Cholesky(c) => Output::Cholesky(cholesky::run_on(rt, c)),
            Config::Pagerank(c) => Output::Pagerank(pagerank::run_on(rt, c)),
            Config::Halo(c) => Output::Halo(halo::run_on(rt, c)),
        }
    }

    /// Serial execution on `TraceRuntime`: the reference result and the
    /// trace of the program's tasks.
    pub fn trace(&self) -> (Trace, Output) {
        let mut rt = TraceRuntime::new();
        let out = self.run_on(&mut rt);
        (rt.into_parts().1, out)
    }
}
