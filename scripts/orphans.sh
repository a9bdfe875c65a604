#!/usr/bin/env bash
# The public surface is what something calls. For every file under
# crates/*/src, the lines before its first `#[cfg(test)]` are scanned for
# `pub fn` / `pub const fn` definitions; a name that appears as a word in no
# other file under crates/, tests/ or benchmark/src is printed. So is each
# `pub struct|enum|trait|type|const|static` name that appears in no other
# file and in no `pub fn` signature, `pub` field or `pub const|static` type
# of its crate. Each `pub use` name in a crate's lib.rs that appears in no
# file outside that crate's src/, and in no other `pub fn` signature or
# `pub` field of that crate, is printed too. Exits non-zero when a printed
# name is not on the allow-list below.
# Run from any commit's checkout; `--root DIR` scans another tree.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ${1:-} == --root ]]; then cd "$2"; fi

# The allow-list: one name a line, then `#` and the one-line reason it stays
# exported without an outside caller. Empty: every name has a caller.
allow=$(sed 's/#.*//' <<'EOF'
EOF
)

mapfile -t files < <(find crates tests benchmark/src -type f -name '*.rs' 2>/dev/null | sort)
awk -v allow="$allow" '
    FNR == 1 { test = insig = 0; files[++nfiles] = FILENAME }
    /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    {
        n = split($0, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            if (w[i] != "" && !((w[i], FILENAME) in seen)) { seen[w[i], FILENAME] = 1; count[w[i]]++ }
    }
    # Definitions: non-test code of crates/*/src. The words of each `pub fn`
    # signature (up to its body), of each `pub` field and of each
    # `pub const|static` type are the types a public signature names, which
    # stay exported.
    !test && FILENAME ~ /^crates\/[^\/]+\/src\// {
        crate = FILENAME; sub(/src\/.*/, "src/", crate)
        if (match($0, /^[[:space:]]*pub (const )?fn [A-Za-z0-9_]+/)) {
            name = substr($0, RSTART, RLENGTH); sub(/.* fn /, "", name)
            ndef++; def_name[ndef] = name; def_file[ndef] = FILENAME ":" FNR
            insig = 1
        } else if (match($0, /^[[:space:]]*pub (struct|enum|trait|type|const|static) [A-Za-z0-9_]+/)) {
            item = substr($0, RSTART, RLENGTH); sub(/^[[:space:]]*pub /, "", item)
            split(item, kw, " ")
            nty++; ty_kind[nty] = kw[1]; ty_name[nty] = kw[2]; ty_file[nty] = FILENAME ":" FNR
            ty_crate[nty] = crate
            if (kw[1] == "const" || kw[1] == "static") {
                decl = $0; sub(/^[^:]*:/, "", decl); sub(/=.*/, "", decl)
                m = split(decl, tw, /[^A-Za-z0-9_]+/)
                for (i = 1; i <= m; i++) signature[crate, tw[i]] = 1
            }
        }
        if (insig || /^[[:space:]]*pub [a-z_][a-z0-9_]*:/) {
            for (i = 1; i <= n; i++) if (!insig || w[i] != name) signature[crate, w[i]] = 1
            if (/\{|;[[:space:]]*$/) insig = 0
        }
    }
    # Re-exports: every `pub use` statement of a lib.rs, up to its `;`.
    !test && FILENAME ~ /^crates\/[^\/]+\/src\/lib\.rs$/ && (inuse || /^pub use /) {
        stmt = stmt " " $0; inuse = 1
        if (/;/) {
            sub(/^ *pub use /, "", stmt); sub(/;.*/, "", stmt)
            if (match(stmt, /\{.*\}/)) stmt = substr(stmt, RSTART + 1, RLENGTH - 2)
            m = split(stmt, items, ",")
            for (i = 1; i <= m; i++) {
                item = items[i]; gsub(/^[[:space:]]+|[[:space:]]+$/, "", item)
                sub(/.*[[:space:]]as[[:space:]]+/, "", item); sub(/.*::/, "", item)
                if (item == "" || item == "self" || item == "*") continue
                nre++; re_name[nre] = item; re_file[nre] = FILENAME
            }
            stmt = ""; inuse = 0
        }
    }
    END {
        na = split(allow, lines, "\n")
        for (i = 1; i <= na; i++) { split(lines[i], f, " "); if (f[1] != "") allowed[f[1]] = 1 }
        for (i = 1; i <= ndef; i++) {
            if (count[def_name[i]] > 1) continue
            printf "%s: pub fn %s%s\n", def_file[i], def_name[i], def_name[i] in allowed ? "  (allowed)" : ""
            nfn++; if (!(def_name[i] in allowed)) bad++
        }
        for (i = 1; i <= nty; i++) {
            if (count[ty_name[i]] > 1 || (ty_crate[i], ty_name[i]) in signature) continue
            printf "%s: pub %s %s%s\n", ty_file[i], ty_kind[i], ty_name[i], ty_name[i] in allowed ? "  (allowed)" : ""
            nty_out++; if (!(ty_name[i] in allowed)) bad++
        }
        for (i = 1; i <= nre; i++) {
            crate = re_file[i]; sub(/lib\.rs$/, "", crate)
            used = (crate, re_name[i]) in signature
            for (j = 1; j <= nfiles && !used; j++)
                if (index(files[j], crate) != 1 && (re_name[i], files[j]) in seen) used = 1
            if (used) continue
            printf "%s: pub use %s%s\n", re_file[i], re_name[i], re_name[i] in allowed ? "  (allowed)" : ""
            nuse++; if (!(re_name[i] in allowed)) bad++
        }
        printf "%d pub fn, %d pub item, %d pub use without an outside caller; %d not on the allow-list\n", nfn, nty_out, nuse, bad
        exit bad > 0
    }' "${files[@]}"
