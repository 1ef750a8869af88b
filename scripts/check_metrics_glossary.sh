#!/usr/bin/env bash
# Glossary drift check: every MetricsSnapshot counter (the
# SAC_METRICS_FOR_EACH_COUNTER list in src/common/metrics.h) and every
# partition-balance field of StageStatsSnapshot (`double partition_*skew`)
# must be documented in docs/OPERATIONS.md. Fails listing the missing
# names, so adding either without documenting it breaks check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Entries read `X(field, Enumerator, scope)`; the field is the name.
counters="$(sed -n 's/^ *X(\([a-z_0-9]*\), *k[A-Za-z0-9]*, *k[A-Za-z]*).*/\1/p' \
  src/common/metrics.h)"
stage_fields="$(sed -n 's/^ *double \(partition_[a-z_]*skew\) = 0;.*/\1/p' \
  src/common/metrics.h)"
if [[ -z "$counters" || -z "$stage_fields" ]]; then
  echo "metrics glossary: failed to extract counters / stage fields from src/common/metrics.h" >&2
  exit 2
fi

missing=0
for name in $counters $stage_fields; do
  if ! grep -q "$name" docs/OPERATIONS.md; then
    echo "metrics glossary: counter '$name' (MetricsSnapshot) is not documented in docs/OPERATIONS.md" >&2
    missing=1
  fi
done

if [[ "$missing" == 0 ]]; then
  echo "metrics glossary: all MetricsSnapshot counters and stage balance fields documented ($(echo "$counters" | wc -l) counters, $(echo "$stage_fields" | wc -l) fields)"
fi
exit "$missing"
