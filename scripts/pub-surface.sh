#!/usr/bin/env bash
# Lists every public item in crates/*/src that no other file names.
#
# An item is a `pub fn`, `pub struct`, `pub enum`, `pub trait`,
# `pub const`, `pub static` or `pub type`. It counts as used when its
# name appears as a whole word in any other `.rs` file under crates/,
# tests/, examples/ or nsbench/src. A struct, enum or type alias named in
# the signature of a `pub fn` of its own file also counts as used: it is
# how callers read that function's result, and the function is checked
# in its own right. Prints one `path:line: kind name` per unused item and
# exits 1 if there is any; prints nothing and exits 0 otherwise. Run from
# the repo root:
#
#     scripts/pub-surface.sh
#
# The check is by name only: a mention in a comment, or an unrelated item
# of the same name elsewhere, passes, and so does a mention in another
# file of the same crate (the item may then still be narrower than `pub`).
# Two blind spots follow from that:
#
# - `pub` struct fields are never listed, so an output field no caller
#   reads is not caught (`ActivityProfile::routers` and
#   `SimReport::avg_link_utilization` both went unflagged).
# - a `pub fn` passes when its name is also a parameter or local name in
#   any other file (`ActivityProfile::flits_per_cycle` passed on a
#   `flits_per_cycle` parameter in the simulator's config).
set -euo pipefail
cd "$(dirname "$0")/.."

all_rs=$(find crates tests examples nsbench/src -name '*.rs' | sort)
found=0
for file in $(find crates/*/src -name '*.rs' | sort); do
    others=$(grep -vxF "$file" <<<"$all_rs")
    # Every identifier in the signature of a `pub fn` of this file, one
    # per line: the text from `pub fn` up to the body's `{` or a `;`.
    signature_words=$(awk '
        /^[[:space:]]*pub (const )?fn / { sig = 1 }
        sig {
            text = $0
            sub(/[{;].*/, "", text)
            gsub(/[^A-Za-z0-9_]+/, " ", text)
            n = split(text, word, " ")
            for (i = 1; i <= n; i++) print word[i]
            if ($0 ~ /[{;]/) sig = 0
        }' "$file" | sort -u)
    while IFS=: read -r line kind name; do
        case "$kind" in
        struct | enum | type)
            grep -qxF -- "$name" <<<"$signature_words" && continue
            ;;
        esac
        # shellcheck disable=SC2086 # one path per word
        if ! grep -qw -- "$name" $others; then
            echo "$file:$line: $kind $name"
            found=1
        fi
    done < <(awk '
        match($0, /^[[:space:]]*pub (const fn|fn|struct|enum|trait|const|static|type) [A-Za-z_][A-Za-z0-9_]*/) {
            n = split(substr($0, RSTART, RLENGTH), word, " ")
            kind = (n == 4) ? word[2] " " word[3] : word[2]
            print NR ":" kind ":" word[n]
        }' "$file")
done
exit "$found"
