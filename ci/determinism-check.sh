#!/usr/bin/env sh
# determinism-check.sh <ARTIFACT.json> -- <command...>
#
# <command...> is a seeded sweep that prints its report on stdout (and
# writes it to <ARTIFACT.json>). Run it twice and fail unless both runs
# succeed, agree byte-for-byte, and agree with the committed copy of the
# artifact (`git show HEAD:<ARTIFACT.json>`). Every seeded sweep in this
# repo (chaos, explore, autofix, crash, kv, canary) promises bit-for-bit
# reproducibility; this is the one place that promise is enforced.
# "host_cores" is the only field allowed to follow the machine
# (BENCH_kv.json records it), so it is masked on both sides.
set -eu

if [ "$#" -lt 3 ] || [ "$2" != "--" ]; then
    echo "usage: $0 <ARTIFACT.json> -- <command...>" >&2
    exit 2
fi

artifact=$1
shift 2
out=target/determinism/${artifact%.json}
mkdir -p target/determinism

"$@" > "${out}_a.json"
"$@" > "${out}_b.json"
if ! cmp "${out}_a.json" "${out}_b.json"; then
    echo "determinism-check: two runs of '$*' diverged" >&2
    exit 1
fi

mask() { sed 's/"host_cores":[0-9]*/"host_cores":N/'; }
git show "HEAD:${artifact}" | mask > "${out}_committed.json"
if ! mask < "${out}_a.json" | cmp - "${out}_committed.json"; then
    echo "determinism-check: '$*' no longer reproduces the committed ${artifact}" >&2
    echo "  (diff ${out}_a.json ${out}_committed.json to inspect)" >&2
    exit 1
fi
