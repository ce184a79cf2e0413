#!/usr/bin/env sh
# loc.sh
#
# Print the line-count ledger ROADMAP's "same behaviour from the least
# code" item tracks: one line per crate (its src/ and benches/), the
# facade (src/) and examples/, then the ledger metric itself — every
# line of Rust under crates/*/src, src, examples and crates/*/benches,
# tests excluded. Run from the repo root.
set -eu

count() { find "$@" -name '*.rs' 2>/dev/null | xargs cat | wc -l; }

for crate in crates/*; do
    printf '%-16s %6d\n' "$crate" "$(count "$crate/src" "$crate/benches")"
done
printf '%-16s %6d\n' src "$(count src)"
printf '%-16s %6d\n' examples "$(count examples)"
printf '%-16s %6d\n' ledger "$(count crates/*/src src examples crates/*/benches)"
