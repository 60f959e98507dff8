//! The global `--kernel` flag accepts exactly the three backends; a
//! retired name fails before any command runs and lists the valid ones.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_slice-tuner-cli"))
        .args(args)
        .env_remove("ST_KERNEL")
        .output()
        .expect("run slice-tuner-cli")
}

#[test]
fn retired_kernel_names_fail_and_list_the_valid_ones() {
    for retired in ["simd", "fast"] {
        let out = cli(&["families", "--kernel", retired]);
        assert!(!out.status.success(), "--kernel {retired} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown kernel '{retired}'")),
            "{stderr}"
        );
        assert!(stderr.contains("naive | blocked | sharded"), "{stderr}");
    }
}

#[test]
fn every_valid_kernel_name_is_accepted() {
    for name in ["naive", "blocked", "sharded"] {
        let out = cli(&["families", "--kernel", name]);
        assert!(
            out.status.success(),
            "--kernel {name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
