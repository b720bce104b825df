//! Uniform interface over the applications for the experiment harness.

use jade_apps::{cholesky, halo, ocean, pagerank, string_app, water};
use jade_core::{LocalityMode, Trace};

/// The paper's application set plus the two irregular applications
/// (data-dependent access sets; see DESIGN.md §15).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    Water,
    StringApp,
    Ocean,
    Cholesky,
    Pagerank,
    Halo,
}

impl App {
    /// The paper's four applications — the set every paper table and
    /// figure zips against. Deliberately excludes the irregular apps.
    pub const ALL: [App; 4] = [App::Water, App::StringApp, App::Ocean, App::Cholesky];

    /// The two irregular applications driving the aggregation experiments.
    pub const IRREGULAR: [App; 2] = [App::Pagerank, App::Halo];

    pub fn name(self) -> &'static str {
        match self {
            App::Water => "Water",
            App::StringApp => "String",
            App::Ocean => "Ocean",
            App::Cholesky => "Panel Cholesky",
            App::Pagerank => "PageRank",
            App::Halo => "Halo",
        }
    }

    /// Every CLI key accepted by [`App::parse`], in presentation order
    /// (`repro --list-apps` and the unknown-name error print these).
    pub const CLI_NAMES: [&'static str; 6] =
        ["water", "string", "ocean", "cholesky", "pagerank", "halo"];

    /// Parse a user-facing app name (CLI `--app`).
    pub fn parse(s: &str) -> Option<App> {
        match s.to_ascii_lowercase().as_str() {
            "water" => Some(App::Water),
            "string" => Some(App::StringApp),
            "ocean" => Some(App::Ocean),
            "cholesky" => Some(App::Cholesky),
            "pagerank" => Some(App::Pagerank),
            "halo" => Some(App::Halo),
            _ => None,
        }
    }

    /// Does the programmer provide explicit task placement for this app?
    /// (Paper Section 5.2: only Ocean and Panel Cholesky; the irregular
    /// apps also place tasks, at their data's home.)
    pub fn has_placement(self) -> bool {
        matches!(self, App::Ocean | App::Cholesky | App::Pagerank | App::Halo)
    }

    /// The highest locality level the app reaches: Task Placement where the
    /// programmer places tasks, else Locality. Every experiment that runs
    /// one level runs this one.
    pub fn natural_mode(self) -> LocalityMode {
        if self.has_placement() {
            LocalityMode::TaskPlacement
        } else {
            LocalityMode::Locality
        }
    }

    /// The locality levels the paper reports for the app, highest first.
    pub fn modes(self) -> &'static [LocalityMode] {
        if self.has_placement() {
            &[
                LocalityMode::TaskPlacement,
                LocalityMode::Locality,
                LocalityMode::NoLocality,
            ]
        } else {
            &[LocalityMode::Locality, LocalityMode::NoLocality]
        }
    }

    /// Generate the program trace for `procs` processors at the given
    /// scale. `quick` uses reduced workloads for smoke runs.
    pub fn trace(self, procs: usize, quick: bool) -> Trace {
        match self {
            App::Water => {
                let cfg = if quick {
                    water::WaterConfig {
                        molecules: 256,
                        iterations: 3,
                        procs,
                        seed: 1995,
                    }
                } else {
                    water::WaterConfig::paper(procs)
                };
                water::run_trace(&cfg).0
            }
            App::StringApp => {
                let cfg = if quick {
                    string_app::StringConfig {
                        nx: 48,
                        nz: 96,
                        src_spacing: 8,
                        rcv_spacing: 8,
                        iterations: 3,
                        procs,
                    }
                } else {
                    string_app::StringConfig::paper(procs)
                };
                string_app::run_trace(&cfg).0
            }
            App::Ocean => {
                let cfg = if quick {
                    ocean::OceanConfig {
                        n: 96,
                        iterations: 60,
                        procs,
                    }
                } else {
                    ocean::OceanConfig::paper(procs)
                };
                ocean::run_trace(&cfg).0
            }
            App::Cholesky => {
                let cfg = if quick {
                    cholesky::CholeskyConfig {
                        grid: 16,
                        subassemblies: 2,
                        iface: 16,
                        panel_width: 4,
                        procs,
                    }
                } else {
                    cholesky::CholeskyConfig::paper(procs)
                };
                cholesky::run_trace(&cfg).0
            }
            App::Pagerank => {
                let cfg = if quick {
                    // Denser than paper scale relative to its size: the
                    // quick graph must still give every partition edges
                    // into most others, or the aggregation sweep would
                    // measure graph sparsity instead of coalescing.
                    pagerank::PagerankConfig {
                        nodes: 512,
                        edges_per_node: 8,
                        iterations: 6,
                        ..pagerank::PagerankConfig::paper(procs)
                    }
                } else {
                    pagerank::PagerankConfig::paper(procs)
                };
                pagerank::run_trace(&cfg).0
            }
            App::Halo => {
                let cfg = if quick {
                    halo::HaloConfig {
                        tiles_x: 8,
                        tiles_y: 8,
                        tile: 8,
                        iterations: 8,
                        ..halo::HaloConfig::paper(procs)
                    }
                } else {
                    halo::HaloConfig::paper(procs)
                };
                halo::run_trace(&cfg).0
            }
        }
    }

    /// Paper-measured calibration anchors:
    /// (DASH serial, DASH stripped, iPSC serial, iPSC stripped) seconds.
    pub fn calib(self) -> (f64, f64, f64, f64) {
        match self {
            App::Water => (
                water::calib::DASH_SERIAL_S,
                water::calib::DASH_STRIPPED_S,
                water::calib::IPSC_SERIAL_S,
                water::calib::IPSC_STRIPPED_S,
            ),
            App::StringApp => (
                string_app::calib::DASH_SERIAL_S,
                string_app::calib::DASH_STRIPPED_S,
                string_app::calib::IPSC_SERIAL_S,
                string_app::calib::IPSC_STRIPPED_S,
            ),
            App::Ocean => (
                ocean::calib::DASH_SERIAL_S,
                ocean::calib::DASH_STRIPPED_S,
                ocean::calib::IPSC_SERIAL_S,
                ocean::calib::IPSC_STRIPPED_S,
            ),
            App::Cholesky => (
                cholesky::calib::DASH_SERIAL_S,
                cholesky::calib::DASH_STRIPPED_S,
                cholesky::calib::IPSC_SERIAL_S,
                cholesky::calib::IPSC_STRIPPED_S,
            ),
            App::Pagerank => (
                pagerank::calib::DASH_SERIAL_S,
                pagerank::calib::DASH_STRIPPED_S,
                pagerank::calib::IPSC_SERIAL_S,
                pagerank::calib::IPSC_STRIPPED_S,
            ),
            App::Halo => (
                halo::calib::DASH_SERIAL_S,
                halo::calib::DASH_STRIPPED_S,
                halo::calib::IPSC_SERIAL_S,
                halo::calib::IPSC_STRIPPED_S,
            ),
        }
    }

    /// Seconds of compute per abstract operation on DASH, calibrated so the
    /// one-processor Jade run lands on the paper's stripped serial time.
    pub fn dash_sec_per_op(self, trace: &Trace) -> f64 {
        let (_, stripped, _, _) = self.calib();
        stripped / trace.total_work()
    }

    /// Seconds of compute per abstract operation on the iPSC/860.
    pub fn ipsc_sec_per_op(self, trace: &Trace) -> f64 {
        let (_, _, _, stripped) = self.calib();
        stripped / trace.total_work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_names_round_trip_through_parse() {
        // The advertised list must stay in sync with the parser: every
        // listed key parses, and every app is reachable from the list.
        let parsed: Vec<App> = App::CLI_NAMES
            .iter()
            .map(|n| App::parse(n).unwrap_or_else(|| panic!("listed name `{n}` must parse")))
            .collect();
        for app in App::ALL.into_iter().chain(App::IRREGULAR) {
            assert!(
                parsed.contains(&app),
                "{} missing from CLI_NAMES",
                app.name()
            );
        }
        assert_eq!(App::parse("no-such-app"), None);
    }

    #[test]
    fn quick_traces_build_for_every_app() {
        for app in App::ALL.into_iter().chain(App::IRREGULAR) {
            let t = app.trace(4, true);
            assert!(t.task_count() > 0, "{:?}", app);
            assert!(t.validate().is_empty());
            assert!(app.dash_sec_per_op(&t) > 0.0);
            assert!(app.ipsc_sec_per_op(&t) > 0.0);
        }
    }

    #[test]
    fn placement_flags() {
        assert!(!App::Water.has_placement());
        assert!(!App::StringApp.has_placement());
        assert!(App::Ocean.has_placement());
        assert!(App::Cholesky.has_placement());
        assert!(App::Pagerank.has_placement());
        assert!(App::Halo.has_placement());
    }

    #[test]
    fn app_names_parse() {
        for app in App::ALL.into_iter().chain(App::IRREGULAR) {
            let key = match app {
                App::StringApp => "string".to_string(),
                App::Cholesky => "cholesky".to_string(),
                other => other.name().to_ascii_lowercase(),
            };
            assert_eq!(App::parse(&key), Some(app), "{key}");
        }
        assert_eq!(App::parse("nope"), None);
    }
}
