#!/usr/bin/env bash
# Glossary drift check: every MetricsSnapshot counter (the
# SAC_METRICS_FOR_EACH_COUNTER list in src/common/metrics.h) must be
# documented in docs/OPERATIONS.md. Fails listing the missing names, so
# adding a counter without documenting it breaks check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Entries read `X(field, Enumerator, scope)`; the field is the name.
counters="$(sed -n 's/^ *X(\([a-z_0-9]*\), *k[A-Za-z0-9]*, *k[A-Za-z]*).*/\1/p' \
  src/common/metrics.h)"
if [[ -z "$counters" ]]; then
  echo "metrics glossary: failed to extract counters from src/common/metrics.h" >&2
  exit 2
fi

missing=0
for name in $counters; do
  if ! grep -q "$name" docs/OPERATIONS.md; then
    echo "metrics glossary: counter '$name' (MetricsSnapshot) is not documented in docs/OPERATIONS.md" >&2
    missing=1
  fi
done

if [[ "$missing" == 0 ]]; then
  echo "metrics glossary: all MetricsSnapshot counters documented ($(echo "$counters" | wc -l) counters)"
fi
exit "$missing"
