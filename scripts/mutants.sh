#!/bin/sh
# Mutation table: for each row of scripts/mutants.tsv (file, exact text,
# replacement, crate, test filter) copy the file aside, replace the text with
# sed, run `cargo test -q -p <crate> <filter>`, expect it to fail, restore the
# file from the copy, and print one line per row:
#   killed    the tests failed, as they should
#   survived  the tests passed with the mutation in place
#   no-build  the mutant does not compile (the row needs a better edit)
# Run by hand, not in CI; it edits the checkout's sources while it runs, so
# point it at a spare copy: scripts/mutants.sh [checkout]
# Exits 1 if a row survived or did not build, 2 on a row whose text is absent.
cd "${1:-$(dirname "$0")/..}" || exit 1
table=scripts/mutants.tsv
backup=$(mktemp) || exit 1
current=
restore() {
    if [ -n "$current" ]; then
        cp "$backup" "$current"
        current=
    fi
}
trap 'restore; rm -f "$backup"' EXIT
trap 'exit 130' INT TERM
# Escapes a literal for a sed BRE pattern, and for a sed replacement.
pattern() { printf '%s' "$1" | sed 's/[]\/.*^$[]/\\&/g'; }
replacement() { printf '%s' "$1" | sed 's/[\/&]/\\&/g'; }

tab=$(printf '\t')
status=0
row=0
printf '%-4s %-9s %-32s %-10s %s\n' row verdict file crate filter
while IFS="$tab" read -r file text repl crate filter; do
    case "$file" in '' | '#'*) continue ;; esac
    row=$((row + 1))
    if ! grep -qF -- "$text" "$file"; then
        echo "mutants.sh: row $row: text not found in $file: $text" >&2
        exit 2
    fi
    cp "$file" "$backup"
    current=$file
    sed "s/$(pattern "$text")/$(replacement "$repl")/g" "$backup" >"$file"
    if cmp -s "$file" "$backup"; then
        echo "mutants.sh: row $row: sed left $file unchanged" >&2
        exit 2
    fi
    if ! cargo test -q -p "$crate" --no-run </dev/null >/dev/null 2>&1; then
        verdict=no-build
        status=1
    elif cargo test -q -p "$crate" "$filter" </dev/null >/dev/null 2>&1; then
        verdict=survived
        status=1
    else
        verdict=killed
    fi
    restore
    printf '%-4s %-9s %-32s %-10s %s\n' "$row" "$verdict" "$file" "$crate" "$filter"
done <"$table"
exit "$status"
