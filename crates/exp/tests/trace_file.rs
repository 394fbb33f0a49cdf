//! `TraceSpec::File` reads the JSON trace format whatever the file's
//! extension, and names the file when it cannot.

use netsmith_exp::TraceSpec;
use netsmith_trace::generate_named;
use std::path::PathBuf;

fn scratch_file(name: &str, contents: &[u8]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn file_traces_are_json_whatever_the_extension() {
    let trace = generate_named("pointer-chase", 20, 256, 3).unwrap();
    let text = trace.to_json_string();
    for name in ["trace_file.json", "trace_file.trace", "trace_file"] {
        let spec = TraceSpec::File {
            path: scratch_file(name, text.as_bytes()),
        };
        assert_eq!(spec.resolve(20).unwrap(), trace, "{name}");
        let err = spec.resolve(16).unwrap_err();
        assert!(err.contains("has 20 routers, cell needs 16"), "{err}");
    }
}

#[test]
fn a_non_json_file_fails_naming_the_file() {
    let path = scratch_file("trace_file_binary.nstr", b"NSTR\x01\x00\x00\x00\x14\x00");
    let err = TraceSpec::File { path: path.clone() }
        .resolve(20)
        .unwrap_err();
    assert!(err.starts_with(&format!("trace file {path:?}")), "{err}");
}
