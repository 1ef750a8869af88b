#!/usr/bin/env bash
# Environment-variable drift check, both ways: every SAC_* variable the
# engine or its tools read (getenv / memory::BudgetFromEnv in src/ and
# tools/) must have a row in the docs/OPERATIONS.md section 1 table, and
# every variable that table documents must still be read somewhere in
# src/, tools/ or bench/. Fails listing the offending names, so adding a
# knob without documenting it, or deleting one and leaving its row,
# breaks check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Join lines first: a call may put its "SAC_..." argument on the next line.
read_vars() {
  find "$@" -name '*.cc' -o -name '*.h' | sort | xargs cat | tr '\n' ' ' \
    | grep -oE '(getenv|BudgetFromEnv)\( *"SAC_[A-Z0-9_]+"' \
    | grep -oE 'SAC_[A-Z0-9_]+' | sort -u
}
engine_vars="$(read_vars src tools)"
all_vars="$(read_vars src tools bench)"
documented="$(sed -n '/^## 1\./,/^## 2\./p' docs/OPERATIONS.md \
  | sed -n 's/^| `\(SAC_[A-Z0-9_]*\)` |.*/\1/p' | sort -u)"
if [[ -z "$engine_vars" || -z "$documented" ]]; then
  echo "env docs: failed to extract variables from the sources or docs/OPERATIONS.md" >&2
  exit 2
fi

status=0
for name in $engine_vars; do
  if ! grep -qx "$name" <<<"$documented"; then
    echo "env docs: $name is read in src/ or tools/ but has no row in docs/OPERATIONS.md section 1" >&2
    status=1
  fi
done
for name in $documented; do
  if ! grep -qx "$name" <<<"$all_vars"; then
    echo "env docs: docs/OPERATIONS.md documents $name, which nothing in src/, tools/ or bench/ reads" >&2
    status=1
  fi
done

if [[ "$status" == 0 ]]; then
  echo "env docs: all $(echo "$documented" | wc -l) documented SAC_* variables are read, and every variable read is documented"
fi
exit "$status"
