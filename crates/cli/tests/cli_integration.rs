//! Integration tests driving the compiled `splice` binary end to end,
//! through every command: the one-shot tools, `exp`, `daemon` and
//! `testkit soak`.

use std::process::{Command, Output};

fn splice(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_splice"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_and_no_args() {
    let out = splice(&["help"]);
    assert!(out.status.success());
    let help = stdout(&out);
    assert!(help.contains("usage: splice"));
    for section in [
        "exp run <experiment>",
        "daemon flags",
        "testkit soak [flags]",
    ] {
        assert!(help.contains(section), "{section}");
    }
    let out = splice(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: splice"));
}

/// `--help`/`-h` after any command prints the usage and exits 0.
#[test]
fn help_after_any_command() {
    for args in [
        &["route", "--help"][..],
        &["info", "--topology", "abilene", "-h"],
        &["daemon", "--help"],
        &["exp", "run", "fig3", "--help"],
        &["testkit", "soak", "-h"],
        &["--help"],
    ] {
        let out = splice(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).contains("usage: splice"), "{args:?}");
    }
}

#[test]
fn exp_list_prints_the_catalogue() {
    let out = splice(&["exp", "list"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("experiments (26):\n"), "{text}");
    assert_eq!(text.lines().count(), 1 + 26, "{text}");
    assert!(text.contains("fig3_reliability"), "{text}");
}

/// A bounded daemon run with an explicit schedule exits 0 on its own,
/// and its exit code is the replay-checksum gate.
#[test]
fn daemon_bounded_run_matches_its_replay_oracle() {
    let out = splice(&[
        "daemon",
        "--topology",
        "abilene",
        "--k",
        "3",
        "--schedule",
        "f4+g2.7+w1.5.1500+n9+r4",
        "--interval-ms",
        "20",
        "--duration-secs",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("[spliced] listening on http://"), "{text}");
    assert!(text.contains("(match)"), "{text}");
}

#[test]
fn testkit_soak_runs_clean() {
    let out = splice(&[
        "testkit",
        "soak",
        "--trials",
        "5",
        "--seed",
        "7",
        "--forward-flows",
        "50",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("5 trials clean"), "{}", stdout(&out));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = splice(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn info_reports_paper_counts() {
    let out = splice(&["info", "--topology", "sprint"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("nodes    : 52"));
    assert!(text.contains("links    : 84"));
    assert!(text.contains("min cut"));
}

#[test]
fn route_prints_a_trace() {
    let out = splice(&["route", "--topology", "geant", "--src", "pt", "--dst", "se"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("delivered in"));
    assert!(text.contains("pt[s0]"));
}

/// A packet addressed to its source is delivered in zero hops, with a
/// latency of 0 and no stretch: the base path's length is 0, and 0/0 once
/// printed `NaNx`.
#[test]
fn route_to_the_source_itself_is_zero_hops() {
    let out = splice(&[
        "route",
        "--topology",
        "abilene",
        "--src",
        "Seattle",
        "--dst",
        "Seattle",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("delivered in 0 hops"), "{text}");
    assert!(text.contains("latency 0.00 ms"), "{text}");
    assert!(!text.contains("NaN") && !text.contains("-0.00"), "{text}");
}

#[test]
fn route_detects_failed_link() {
    let out = splice(&[
        "route",
        "--topology",
        "abilene",
        "--src",
        "Seattle",
        "--dst",
        "New York",
        "--fail",
        "Seattle-Denver",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("dropped at Seattle"));
}

/// End-system recovery re-draws random headers over randomly perturbed
/// slices, so whether one seed recovers depends on the RNG stream: under
/// the in-tree `Rng`, 9 of seeds 1–63 recover at k = 5, 15 the first.
/// Scanning forward pins the test to the property (some deployment routes
/// around the failure) instead of to one stream's draws.
#[test]
fn recover_routes_around_failure() {
    let recovered = (3..64).any(|seed| {
        let out = splice(&[
            "recover",
            "--topology",
            "abilene",
            "--src",
            "Seattle",
            "--dst",
            "New York",
            "--fail",
            "Seattle-Denver",
            "--seed",
            &seed.to_string(),
            "--k",
            "5",
        ]);
        assert!(out.status.success(), "seed {seed}: {}", stderr(&out));
        stdout(&out).contains("recovered in")
    });
    assert!(recovered, "no seed in 3..64 recovers Seattle -> New York");
}

#[test]
fn recover_requires_a_failure() {
    let out = splice(&[
        "recover",
        "--topology",
        "abilene",
        "--src",
        "Seattle",
        "--dst",
        "Denver",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--fail"));
}

#[test]
fn reliability_prints_all_curves() {
    let out = splice(&[
        "reliability",
        "--topology",
        "abilene",
        "--k",
        "1,3",
        "--trials",
        "20",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("k = 1"));
    assert!(text.contains("k = 3"));
    assert!(text.contains("best possible"));
}

#[test]
fn recover_surfaces_router_stats() {
    let out = splice(&[
        "recover",
        "--topology",
        "abilene",
        "--src",
        "Seattle",
        "--dst",
        "New York",
        "--fail",
        "Seattle-Denver",
        "--scheme",
        "network",
        "--seed",
        "3",
        "--k",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("data plane replay"), "{text}");
    assert!(text.contains("router stats: forwarded"), "{text}");
}

/// Under `--scheme network` the replay line, the router-stats block and
/// the `--trace` line are all read off the one walk the scheme ran, so
/// they must agree with the "delivered with in-network deflection" line
/// above them. Scans seeds like `recover_routes_around_failure`.
#[test]
fn recover_network_replay_reports_the_walk_it_ran() {
    let dir = std::env::temp_dir().join("splice-cli-recover-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("walk.jsonl");
    let number_after = |text: &str, marker: &str| -> Option<u64> {
        let rest = &text[text.find(marker)? + marker.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    let delivered = (3..64).any(|seed| {
        let out = splice(&[
            "recover",
            "--topology",
            "abilene",
            "--src",
            "Seattle",
            "--dst",
            "New York",
            "--fail",
            "Seattle-Denver",
            "--scheme",
            "network",
            "--seed",
            &seed.to_string(),
            "--k",
            "5",
            "--trace",
            trace.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "seed {seed}: {}", stderr(&out));
        let text = stdout(&out);
        let Some(hops) = number_after(&text, "delivered with in-network deflection; ") else {
            assert!(text.contains("network recovery on): dropped at"), "{text}");
            return false;
        };
        let replay = "data plane replay (network recovery on): delivered, ";
        assert_eq!(number_after(&text, replay), Some(hops), "{text}");
        assert_eq!(
            number_after(&text, "router stats: forwarded "),
            Some(hops),
            "{text}"
        );
        assert!(text.contains("| delivered 1 | dropped 0 |"), "{text}");
        let walks = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(walks.lines().count(), 1, "{walks}");
        assert!(walks.contains(&format!("\"hops\":{hops},")), "{walks}");
        true
    });
    assert!(delivered, "no seed in 3..64 deflects Seattle -> New York");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reliability_metrics_snapshot() {
    let dir = std::env::temp_dir().join("splice-cli-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.txt");
    let trace = dir.join("walks.jsonl");
    let out = splice(&[
        "reliability",
        "--topology",
        "abilene",
        "--k",
        "1,3",
        "--trials",
        "10",
        "--metrics",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("splice_packets_forwarded_total"), "{text}");
    assert!(text.contains("splice_deflections_total"), "{text}");
    assert!(text.contains("# TYPE splice_trial_duration_seconds histogram"));
    assert!(text.contains("splice_trial_duration_seconds_count 10"));
    let walks = std::fs::read_to_string(&trace).unwrap();
    // One JSONL line per ordered pair on abilene (11 nodes, one p value).
    assert_eq!(walks.lines().count(), 11 * 10);
    assert!(walks
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slices_prints_stretch_table() {
    let out = splice(&["slices", "--topology", "abilene", "--k", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("per-slice path stretch"));
    assert!(text.contains("next-hop diversity"));
}

/// The five counts off `splice forward`'s `outcomes:` line, in print
/// order: delivered, dead-end, link-down, loop, ttl.
fn forward_outcomes(text: &str) -> Vec<u64> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("outcomes: "))
        .expect("forward prints an outcomes line");
    line.split(", ")
        .map(|field| field.split(' ').next().unwrap().parse().unwrap())
        .collect()
}

fn forward(extra: &[&str]) -> Output {
    let mut args = vec![
        "forward",
        "--topology",
        "abilene",
        "--burst",
        "64",
        "--bursts",
        "4",
    ];
    args.extend_from_slice(extra);
    splice(&args)
}

#[test]
fn forward_drains_every_burst_and_spot_checks_itself() {
    let out = forward(&["--shards", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("abilene: 2 shards x 4 bursts x 64 packets"),
        "{text}"
    );
    assert!(text.contains("0 links failed"), "{text}");
    let outcomes = forward_outcomes(&text);
    assert_eq!(outcomes.iter().sum::<u64>(), 2 * 4 * 64, "{text}");
    assert_eq!(outcomes[2], 0, "no link is down: {text}");
    assert!(
        text.contains("differential spot check: shard 0 burst 0 scalar == batch"),
        "{text}"
    );
}

#[test]
fn forward_over_a_failed_link_reports_link_down_outcomes() {
    let out = forward(&["--shards", "2", "--fail", "Seattle-Denver"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 links failed"), "{text}");
    let outcomes = forward_outcomes(&text);
    assert_eq!(outcomes.iter().sum::<u64>(), 2 * 4 * 64, "{text}");
    assert!(outcomes[2] > 0, "seeded flows cross Seattle-Denver: {text}");
    assert!(text.contains("scalar == batch"), "{text}");
}

#[test]
fn forward_rejects_zero_shards() {
    let out = forward(&["--shards", "0"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--burst, --bursts and --shards must all be at least 1"),
        "{}",
        stderr(&out)
    );
}

/// Every rejected input exits 2 with a message naming what was wrong.
#[test]
fn bad_flags_fail_cleanly() {
    let recover = [
        "recover",
        "--topology",
        "abilene",
        "--src",
        "Seattle",
        "--dst",
        "Denver",
        "--fail",
        "Seattle-Denver",
    ];
    for (args, named) in [
        (vec!["route", "--topology", "sprint"], "--src"), // missing src/dst
        (vec!["info", "--topology", "atlantis"], "atlantis"), // unknown topology
        (vec!["route", "--src"], "--src"),                // dangling flag
        (vec!["info", "--fail", "Nowhere-Chicago"], "Nowhere"), // unknown node
        // Zero trials would average 0.0/0 into NaN rows.
        (vec!["reliability", "--trials", "0"], "--trials"),
        // A NaN probability panicked a worker; the others were clamped.
        (vec!["reliability", "--p", "nan"], "--p"),
        (vec!["reliability", "--p", "1.5"], "--p"),
        (vec!["reliability", "--p", "-0.2"], "--p"),
        (vec!["reliability", "--p", "inf"], "--p"),
        // A zero slice count panicked building the deployment.
        (vec!["reliability", "--k", "0"], "--k"),
        (vec!["reliability", "--k", "1,0"], "--k"),
        ([&recover[..], &["--trials", "0"]].concat(), "--trials"),
        // A --trace file that cannot be written was reported as written.
        (
            [&recover[..], &["--trace", "/dev/full"]].concat(),
            "writing /dev/full: No space left on device",
        ),
        (
            vec![
                "reliability",
                "--topology",
                "abilene",
                "--trials",
                "5",
                "--trace",
                "/dev/full",
            ],
            "writing /dev/full: No space left on device",
        ),
        (vec!["exp", "run", "fig3", "--trials", "0"], "--trials"),
        (vec!["exp", "run", "fig3", "--trials"], "--trials"),
        (vec!["exp", "run", "fig3", "--trials", "x"], "--trials"),
        (
            vec!["exp", "run", "fig3", "--semantics", "both"],
            "--semantics",
        ),
        (
            vec!["exp", "run", "fig3", "--strategy", "ospf"],
            "--strategy",
        ),
        (vec!["exp", "run", "fig3", "--bogus", "1"], "--bogus"),
        // An unknown value used to mean `union`.
        (vec!["reliability", "--semantics", "bogus"], "--semantics"),
        // A typo'd flag is named, never silently ignored.
        (
            vec![
                "route",
                "--topology",
                "abilene",
                "--src",
                "Seattle",
                "--dst",
                "Denver",
                "--sclie",
                "2",
            ],
            "--sclie",
        ),
        (
            vec!["daemon", "--topology", "abilene", "--duration-sec", "2"],
            "--duration-sec",
        ),
        (vec!["testkit", "soak", "--trails", "5"], "--trails"),
        (vec!["info", "--k", "5"], "--k"),
        (vec!["exp", "run", "no_such"], "no_such"),
        (vec!["exp", "frobnicate"], "exp frobnicate"),
        (vec!["exp", "run"], "exp run"),
    ] {
        let out = splice(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(named), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn file_topology_roundtrip() {
    let dir = std::env::temp_dir().join("splice-cli-int");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("square.topo");
    std::fs::write(&path, "a b 1\nb c 1\nc d 1\nd a 1\n").unwrap();
    let out = splice(&["info", "--file", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("nodes    : 4"));
    assert!(text.contains("min cut  : 2"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One raw HTTP exchange with a running daemon; returns the response.
fn http(addr: &str, request: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to the daemon");
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// `POST /events` takes bytes off the network: a body that is not UTF-8
/// (or opens with a multi-byte char) is a 400, never a dead admin
/// thread — the next requests are still served and the daemon still
/// exits 0 through its replay oracle.
#[test]
fn daemon_events_route_survives_a_non_utf8_body() {
    use std::io::{BufRead, BufReader};
    /// A failed assertion must not leave the daemon running.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_splice"))
            .args([
                "daemon",
                "--topology",
                "abilene",
                "--k",
                "2",
                "--workers",
                "1",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("splice daemon starts"),
    );
    let mut lines = BufReader::new(child.0.stdout.take().unwrap()).lines();
    let addr = lines
        .find_map(|l| {
            Some(
                l.ok()?
                    .strip_prefix("[spliced] listening on http://")?
                    .to_string(),
            )
        })
        .expect("splice daemon prints its bound address");

    for body in [&b"\xff4"[..], "é4".as_bytes(), "f1+€".as_bytes()] {
        let mut request = format!(
            "POST /events HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        let response = http(&addr, &request);
        assert!(response.starts_with("HTTP/1.1 400"), "{body:?}: {response}");
    }
    let response = http(
        &addr,
        b"POST /events HTTP/1.1\r\nContent-Length: 2\r\n\r\nf1",
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.ends_with("accepted 1 event(s)\n"), "{response}");
    let response = http(&addr, b"POST /shutdown HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    // Keep draining stdout so the daemon never blocks on a full pipe.
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.0.wait().expect("splice daemon exits");
    assert!(status.success(), "exit oracle failed:\n{}", rest.join("\n"));
}
