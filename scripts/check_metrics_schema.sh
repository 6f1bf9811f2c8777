#!/usr/bin/env bash
# Keeps the metric-name documentation honest against the source tree.
#
# Two-way check between the instrumentation sites (every OBS_COUNT /
# OBS_GAUGE_* / OBS_HIST literal under src/ and tools/) and the names
# referenced in docs/observability.md, docs/service.md and DESIGN.md:
#
#   1. every metric name the docs mention must exist in the source, and
#   2. every emitted metric must be mentioned in at least one doc
#      (by full name, or by a documented `prefix.` family row).
#
# Run from anywhere; exits nonzero with a list of offenders.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(docs/observability.md docs/service.md DESIGN.md)

emitted=$(grep -rhoE 'OBS_(COUNT|GAUGE_MAX|GAUGE_SET|HIST)\("[a-z0-9._]+"' \
              src tools |
          sed -E 's/.*\("([a-z0-9._]+)".*/\1/' | sort -u)
[ -n "$emitted" ] || { echo "FAIL: found no OBS_* sites under src/"; exit 1; }

# Doc-referenced metric names: dot-separated lower-case tokens inside
# backticks, filtered to the prefixes the naming-scheme table declares.
# Slash-grouped shorthand like `a.b.hits/.misses` expands on the stem.
doc_names=$(grep -hoE '`[a-z0-9._/]+`' "${DOCS[@]}" | tr -d '`' |
  awk -F/ '/\./ { if (NF == 1) { print; next }
                  stem = $1; print stem
                  base = stem; sub(/\.[a-z0-9_]+$/, "", base)
                  for (i = 2; i <= NF; i++) {
                    if ($i ~ /^\./) print base $i; else print $i
                  } }' | sort -u)

fail=0

# 1. Docs must not name metrics the source no longer emits.
prefixes='^(flow|parse|interleave|selection|store|session|debug|soc|pool|process|svc|resilience)\.'
for name in $doc_names; do
  echo "$name" | grep -qE "$prefixes" || continue
  # Family rows (`svc.`), file paths, derived/service-computed keys and
  # span mirrors are not OBS_* sites.
  case "$name" in
    *.) continue ;;
    *.md|*.hpp|*.cpp|*.sh|*.json|*.yml|*.flow) continue ;;
    span.*|process.*|jobs.*|queue.*|store.*.entries) continue ;;
    selection.step*|selection.search.*|session.*|flow.parse|\
    interleave.stats|interleave.build|interleave.graph|interleave.grid|\
    interleave.consistent_paths|debug.workbench|debug.simulate|\
    debug.capture|debug.root_cause|debug.localize|svc.job|svc.journal.sync)
      continue ;;  # span names
  esac
  if ! echo "$emitted" | grep -qxF "$name"; then
    echo "FAIL: docs reference metric '$name' that no OBS_* site emits"
    fail=1
  fi
done

# 2. Every emitted metric must be documented (full name or family row).
for name in $emitted; do
  if echo "$doc_names" | grep -qxF "$name"; then continue; fi
  prefix="${name%%.*}."
  if grep -qF "\`$prefix\`" "${DOCS[@]}"; then continue; fi
  echo "FAIL: emitted metric '$name' is not documented (no exact match," \
       "no \`$prefix\` family row)"
  fail=1
done

[ "$fail" -eq 0 ] && echo "metrics schema OK ($(echo "$emitted" | wc -l) emitted names checked)"
exit "$fail"
