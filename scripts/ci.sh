#!/bin/sh
# CI entry point: build, full test suite, and the gates that need the
# built binary (exit codes, ulimit/timeout gates, signals, sockets,
# files on disk), all under hard timeouts so a runaway search or an
# accidental unbounded recursion fails the job instead of hanging it.
# Routes that answer one question are compared in-process by
# test/oracle.ml; the CLI comparisons here all go through [same].
set -eu

cd "$(dirname "$0")/.."

run() {
  # timeout(1) is in coreutils on the GitHub runners and in the dev
  # container alike
  secs=$1
  shift
  echo "+ timeout ${secs}s $*"
  timeout "$secs" "$@"
}

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# has TEXT NEEDLE: TEXT contains NEEDLE
has() {
  case $1 in *"$2"*) return 0 ;; *) return 1 ;; esac
}

# exits WANT ARGS...: jsonlogic ARGS exits WANT; its stdout and stderr
# are left in $out
exits() {
  want=$1
  shift
  status=0
  out=$($J "$@" 2>&1) || status=$?
  [ "$status" = "$want" ] || fail "jsonlogic $*: expected exit $want, got $status ($out)"
}

# same WHAT ARGS...: the command lines [a ARGS] and [b ARGS] (shell
# functions) print the same stdout and exit alike; that stdout is left
# in $out and the status in $status.  $norm, when set, is a sed script
# run on both outputs first (and is cleared).
same() {
  what=$1
  shift
  sa=0
  oa=$(a "$@") || sa=$?
  sb=0
  ob=$(b "$@") || sb=$?
  if [ -n "${norm:-}" ]; then
    oa=$(printf '%s\n' "$oa" | sed "$norm")
    ob=$(printf '%s\n' "$ob" | sed "$norm")
    norm=
  fi
  if [ "$oa" != "$ob" ] || [ "$sa" != "$sb" ]; then
    echo "FAIL: $what: exits $sa and $sb, stdout:" >&2
    printf '%s\n---\n%s\n' "$oa" "$ob" | head -20 >&2
    exit 1
  fi
  out=$oa status=$sa
}

run 600 dune build @all
run 600 dune runtest

JSONLOGIC=_build/default/bin/jsonlogic.exe
J="timeout 120 $JSONLOGIC"
# Every gate keeps its files under one temporary root, removed on any
# exit: a gate that fails leaves nothing behind.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Budget regression gate.  A 100k-deep document must produce a
# structured error (exit 1 with an error: line), never a crash (exit
# 2+) or a hang — and the same input class must pass when the ceiling
# is lifted (20k here: above the 10k default; the parser is linear in
# depth, but the pretty printer's indentation makes output quadratic,
# so stay modest).
deep="$tmp/deep.json"
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "["; printf "1";
             for (i = 0; i < 100000; i++) printf "]" }' > "$deep"
exits 1 parse "$deep"
has "$out" depth || fail "100k-deep parse error does not mention depth: $out"
deep20="$tmp/deep20"
awk 'BEGIN { for (i = 0; i < 20000; i++) printf "["; printf "1";
             for (i = 0; i < 20000; i++) printf "]" }' > "$deep20"
run 60 "$JSONLOGIC" parse --max-depth 30000 "$deep20" > /dev/null
exits 1 parse --fuel 3 "$deep"
has "$out" fuel || fail "fuel-3 parse error does not mention fuel: $out"

# Wide-input gate: reading JSON is linear in an object's keys, and
# checking and compiling a schema linear in its definitions.  A
# 128k-key object must parse, and a 32k-definition schema (each
# definition referenced from one property, in 128 groups of 256, so
# both flat and nested conjunctions are exercised) must validate well
# inside 20 s; a list scan per key or per definition takes minutes.
# Looking a key up in a wide object is O(1) expected: the 128k-key
# object against a schema requiring every one of its keys, through
# the default route, --files-from and --stream (a scan per lookup
# takes about half a minute).
wide="$tmp/wide"
awk 'BEGIN { printf "{";
             for (i = 0; i < 131072; i++) printf "%s\"k%d\":%d", (i ? "," : ""), i, i;
             printf "}" }' > "$wide"
run 20 "$JSONLOGIC" parse "$wide" > /dev/null
awk 'BEGIN { g = 128; m = 256; printf "{\"definitions\":{";
             for (i = 0; i < g * m; i++)
               printf "%s\"d%d\":{\"type\":\"number\",\"minimum\":%d}", (i ? "," : ""), i, i % 7;
             printf "},\"type\":\"object\",\"properties\":{";
             for (j = 0; j < g; j++) {
               printf "%s\"g%d\":{\"properties\":{", (j ? "," : ""), j;
               for (k = 0; k < m; k++)
                 printf "%s\"p%d\":{\"$ref\":\"#/definitions/d%d\"}", (k ? "," : ""), j * m + k, j * m + k;
               printf "}}" }
             printf "}}" }' > "$tmp/wide_schema"
printf '%s\n' '{"g0":{"p1":5},"g127":{"p32767":6}}' '{"g0":{"p3":2}}' '{}' > "$tmp/wide_docs"
awk 'BEGIN { printf "{\"type\":\"object\",\"required\":[";
             for (i = 0; i < 131072; i++) printf "%s\"k%d\"", (i ? "," : ""), i;
             printf "]}" }' > "$tmp/wide_req"
echo "$wide" > "$tmp/wide_list"
{ cat "$wide"; printf '\n{"k0":0}\n'; } > "$tmp/wide_req_docs"
wide_check() {  # NAME EXPECTED_STATUS EXPECTED_OUTPUT ARGS...
  name=$1 want_status=$2 want=$3
  shift 3
  echo "+ timeout 20s $JSONLOGIC validate <$name>"
  status=0
  out=$(timeout 20 "$JSONLOGIC" validate "$@") || status=$?
  if [ "$status" != "$want_status" ] || [ "$out" != "$want" ]; then
    echo "$out" | cut -c1-200 >&2
    fail "wide validate ($name): exit $status"
  fi
}
wide_check "32k definitions" 1 \
  "$(printf 'valid\t%s\nINVALID\t%s\nvalid\t%s' \
       '{"g0":{"p1":5},"g127":{"p32767":6}}' '{"g0":{"p3":2}}' '{}')" \
  --schema "$tmp/wide_schema" "$tmp/wide_docs"
wide_check "required 128k keys" 1 \
  "$(printf 'valid\t%s\nINVALID\t{"k0":0}' "$(cat "$wide")")" \
  --schema "$tmp/wide_req" "$tmp/wide_req_docs"
wide_check "required 128k keys, --files-from" 0 "$(printf '%s\tvalid' "$wide")" \
  --schema "$tmp/wide_req" --files-from "$tmp/wide_list"
wide_check "required 128k keys, --stream" 1 \
  "$(printf '%s:1\tvalid\n%s:2\tINVALID' "$tmp/wide_req_docs" "$tmp/wide_req_docs")" \
  --stream --schema "$tmp/wide_req" "$tmp/wide_req_docs"
rm -f "$wide" "$deep20" "$tmp"/wide_*

# Batch CLI wiring: --files-from across 2 domains prints one in-order
# line per input, what the sequential run prints, and folds a
# malformed document into a per-file error instead of dying.  Like
# inline eval, the run exits 1 when a row is an error, and 0 when
# every listed file parses.
batch_dir="$tmp/batch_dir"
mkdir "$batch_dir"
for i in $(seq 1 40); do
  if [ "$i" = 23 ]; then
    printf '{"name":{"first":}' > "$batch_dir/doc$i.json"   # malformed
  else
    printf '{"name":{"first":"John"},"age":%d}' "$i" > "$batch_dir/doc$i.json"
    echo "$batch_dir/doc$i.json" >> "$batch_dir/good"
  fi
  echo "$batch_dir/doc$i.json" >> "$batch_dir/list"
done
john='eq(.name.first, "John")'
a() { $J eval --files-from "$1" --jobs 1 "$john"; }
b() { $J eval --files-from "$1" --jobs 2 "$john"; }
same "batch eval --jobs 1 and 2" "$batch_dir/list"
[ "$status" = 1 ] || fail "batch eval with a malformed file: expected exit 1, got $status"
[ "$(printf '%s\n' "$out" | wc -l)" = 40 ] || fail "batch eval expected 40 result lines: $out"
has "$out" "doc23.json	error:" || fail "malformed batch document did not fold into a per-file error: $out"
same "batch eval --jobs 1 and 2, well-formed files" "$batch_dir/good"
if [ "$status" != 0 ] || [ "$(printf '%s\n' "$out" | grep -c '	true$')" != 39 ]; then
  fail "batch eval over well-formed files: exit $status: $out"
fi
rm -rf "$batch_dir"

# Missing inputs and unreachable endpoints are user errors: exit 1 with
# an error: line on stderr, never an uncaught exception (exit 125).
mdir="$tmp/mdir"
mkdir "$mdir"
echo '{}' > "$mdir/doc.json"
printf '%s\n%s\n' "$mdir/doc.json" "$mdir/missing.json" > "$mdir/list"
expect_user_error() {
  ue_status=0
  ue_err=$($J "$@" 2>&1 >/dev/null) || ue_status=$?
  case $ue_status:$ue_err in
    *uncaught*) fail "jsonlogic $*: uncaught exception: $ue_err" ;;
    1:error:*) ;;
    *) fail "jsonlogic $*: expected exit 1 and error:, got exit $ue_status: $ue_err" ;;
  esac
}
expect_user_error validate -s "$mdir/missing.json" "$mdir/doc.json"
expect_user_error eval '<.a>' "$mdir/missing.json"
expect_user_error eval --files-from "$mdir/missing-list" '<.a>'
expect_user_error aggregate --files-from "$mdir/list" '[]'
expect_user_error client --socket "$mdir/nope.sock" --ping
expect_user_error client --tcp 127.0.0.1:1 --ping
expect_user_error serve --socket "$mdir/no-dir/x.sock"
rm -rf "$mdir"

# Collection input: eval, validate, find, aggregate and infer cut their
# input into top-level values and answer each as one document, at
# every --jobs.  Well-formed input prints what it always printed: a
# pretty-printed document and a line holding two values, and for find,
# aggregate and infer a lone top-level array read as its elements.  On
# a malformed line eval and validate print an error row labelled
# path:line and answer the other documents; find, aggregate, infer and
# --from stop at the first failed document.
cidir="$tmp/cidir"
mkdir "$cidir"
cat > "$cidir/mixed.json" <<'EOF'
{
  "name": {"first": "Sue"},
  "age": 28,
  "tags": ["a", "b"]
}
{"name":{"first":"John"},"age":32} {"name":{"first":"Ana"},"age":17}
EOF
printf '%s\n' '[{"name":{"first":"Sue"},"age":28},' ' {"age":17}]' > "$cidir/array.json"
printf '%s' '{"type":"object","required":["age"],"properties":{"age":{"type":"number","minimum":18}}}' \
  > "$cidir/adult.json"
printf '%s\n' '{"a":1}' '{"a":' '{"b":2}' > "$cidir/bad.ndjson"
printf '{}' > "$cidir/any.json"
expect_run() {  # WANT_STATUS WANT_STDOUT WANT_STDERR ARGS...: at --jobs 1 and 2
  er_status=$1 er_out=$2 er_err=$3
  shift 3
  a() { $J "$@" --jobs 1 2> "$cidir/err1"; }
  b() { $J "$@" --jobs 2 2> "$cidir/err2"; }
  same "jsonlogic $* --jobs 1 and 2" "$@"
  if [ "$status" != "$er_status" ] || [ "$out" != "$er_out" ] \
     || [ "$(cat "$cidir/err1")" != "$er_err" ] || [ "$(cat "$cidir/err2")" != "$er_err" ]; then
    printf '%s\n' "$out" >&2
    cat "$cidir/err1" >&2
    fail "jsonlogic $*: exit $status (want $er_status), stdout then stderr above"
  fi
}
sue='{"name":{"first":"Sue"},"age":28,"tags":["a","b"]}'
john_doc='{"name":{"first":"John"},"age":32}'
ana='{"name":{"first":"Ana"},"age":17}'
expect_run 0 "$(printf 'true\t%s\ntrue\t%s\ntrue\t%s' "$sue" "$john_doc" "$ana")" "" \
  eval '<.name.first>' "$cidir/mixed.json"
expect_run 1 "$(printf 'valid\t%s\nvalid\t%s\nINVALID\t%s' "$sue" "$john_doc" "$ana")" "" \
  validate -s "$cidir/adult.json" "$cidir/mixed.json"
expect_run 0 "$(printf '%s\n' '{"name":{"first":"Sue"}}' '{"name":{"first":"John"}}')" "" \
  find '{"age":{"$gte":18}}' -p '{"name.first":1}' "$cidir/mixed.json"
expect_run 0 "$(printf '%s\n' '{"n":"John"}' '{"n":"Sue"}' '{"n":"Ana"}')" "" \
  aggregate '[{"$sort":{"age":0}},{"$project":{"n":"$name.first"}}]' "$cidir/mixed.json"
infer_head='{
  "type": "object",
  "required": [
    "age"'
infer_tail='
  "properties": {
    "age": {
      "type": "number"
    },
    "name": {
      "type": "object",
      "required": [
        "first"
      ],
      "properties": {
        "first": {
          "type": "string"
        }
      }
    }'
expect_run 0 "$infer_head,
    \"name\"
  ],$infer_tail,
    \"tags\": {
      \"type\": \"array\",
      \"additionalItems\": {
        \"type\": \"string\"
      }
    }
  }
}" "" infer "$cidir/mixed.json"
expect_run 0 '{"name":{"first":"Sue"},"age":28}' "" \
  find '{"age":{"$gte":18}}' "$cidir/array.json"
expect_run 0 "$(printf '%s\n' '{"age":28}' '{"age":17}')" "" \
  aggregate '[{"$project":{"age":1}}]' "$cidir/array.json"
expect_run 0 "$infer_head
  ],$infer_tail
  }
}" "" infer "$cidir/array.json"
bad="$cidir/bad.ndjson"
bad_msg='line 1, column 6: unexpected end of input, expected a JSON value'
expect_run 1 "$(printf 'true\t{"a":1}\nerror: %s\t%s:2\nfalse\t{"b":2}' "$bad_msg" "$bad")" "" \
  eval '<.a>' "$bad"
expect_run 1 "$(printf 'valid\t{"a":1}\nerror: %s\t%s:2\nvalid\t{"b":2}' "$bad_msg" "$bad")" "" \
  validate -s "$cidir/any.json" "$bad"
# the error cell is the one validate --stream prints for that line
a() { $J validate -s "$cidir/any.json" "$bad" | sed -n 2p | cut -f1; }
b() { $J validate -s "$cidir/any.json" --stream "$bad" | sed -n 2p | cut -f2; }
same "the bad line's cell, inline and --stream"
[ -n "$out" ] || fail "the bad line has no cell"
expect_run 1 '{"a":1}' "error: $bad:2: $bad_msg" find '{}' "$bad"
expect_run 1 '{"a":1}' "error: $bad:2: $bad_msg" aggregate '[{"$match":{}}]' "$bad"
expect_run 1 "" "error: $bad:2: $bad_msg" infer "$bad"
expect_run 1 "" "error: $bad:2: $bad_msg" \
  aggregate --from "c=$bad" '[]' "$cidir/any.json"

# Budget gate: compat, examples, select, find and aggregate stop under
# the budget flags like every other command.  A search that runs out
# answers unknown and exits 2, as sat does; evaluation that runs out is
# an error, labelled path:line for a collection's document.  Without
# the flags each prints what it always printed.  The document has 934
# values, so its parse alone draws 934 units of --fuel 2000; the 199-way
# $or over {"a":0} tries 198 disjuncts before the one that holds.
printf '%s' '{"type":"object","properties":{"age":{"type":"number"}}}' > "$cidir/old.json"
printf '%s' '{"type":"object","required":["name"],"properties":{"age":{"type":"number"}}}' \
  > "$cidir/new.json"
printf '%s' '{"allOf":[{"type":"string"},{"type":"number"}]}' > "$cidir/unsat.json"
awk 'BEGIN { printf "{\"a\":["; for (i = 0; i < 932; i++) printf "%s%d", (i ? "," : ""), i
             printf "]}" }' > "$cidir/doc934.json"
or199=$(awk 'BEGIN { printf "{\"$or\":["
                     for (i = 198; i >= 0; i--) printf "{\"a\":%d}%s", i, (i ? "," : "")
                     printf "]}" }')
printf '{"a":0}\n' > "$cidir/a0.ndjson"
spent='resource budget exhausted: node fuel spent'
expect_run 2 "unknown ($spent)" "" compat --fuel 1 "$cidir/old.json" "$cidir/new.json"
expect_run 1 "$(printf 'BREAKING: valid under OLD, rejected by NEW:\n{}')" "" \
  compat "$cidir/old.json" "$cidir/new.json"
expect_run 2 "unknown ($spent)" "" examples --fuel 1 -s "$cidir/adult.json"
expect_run 0 "$(printf '%s\n' '{"age":18}' '{"age":18,"a":18}' '{"age":18,"a":19}')" "" \
  examples -s "$cidir/adult.json"
expect_run 1 "no example found (schema unsatisfiable or search exhausted)" "" \
  examples -s "$cidir/unsat.json"
expect_run 1 "" "error: $spent" select --fuel 2000 '$..*' "$cidir/doc934.json"
expect_run 0 "$(awk 'BEGIN { printf "["; for (i = 0; i < 932; i++) printf "%s%d", (i ? "," : ""), i
                             print "]"; for (i = 0; i < 932; i++) print i }')" "" \
  select '$..*' "$cidir/doc934.json"
# select builds its tree straight from the text, in one pass
$J select --metrics '$.a' "$cidir/doc934.json" 2>&1 >/dev/null \
  | grep -q '^parse\.direct\.docs  *1$' \
  || fail "select --metrics does not read parse.direct.docs 1"
expect_run 1 "" "error: $cidir/a0.ndjson:1: $spent" find --fuel 5 "$or199" "$cidir/a0.ndjson"
expect_run 0 '{"a":0}' "" find "$or199" "$cidir/a0.ndjson"
expect_run 1 "" "error: $cidir/a0.ndjson:1: $spent" \
  aggregate --fuel 5 "[{\"\$match\":$or199}]" "$cidir/a0.ndjson"
expect_run 0 '{"a":0}' "" aggregate "[{\"\$match\":$or199}]" "$cidir/a0.ndjson"

# The read size is a constant: --chunk-bytes is a usage error (124).
for removed in "validate -s $cidir/any.json $cidir/a0.ndjson" "serve --socket $cidir/x.sock"; do
  rm_status=0
  rm_err=$($J $removed --chunk-bytes 7 2>&1 >/dev/null) || rm_status=$?
  case $rm_status:$rm_err in
    "124:jsonlogic: unknown option '--chunk-bytes'."*) ;;
    *) fail "jsonlogic $removed --chunk-bytes 7: exit $rm_status: $rm_err" ;;
  esac
done
rm -rf "$cidir"

# Compiled-validate CLI wiring: the sequential and a 2-domain batch
# print byte-identical path<TAB>verdict lines; mixed verdicts exit 1.
vdir="$tmp/vdir"
mkdir "$vdir"
cat > "$vdir/schema.json" <<'EOF'
{"definitions":{"id":{"type":"number","minimum":1}},
 "type":"object","required":["a"],
 "properties":{"a":{"$ref":"#/definitions/id"}},
 "patternProperties":{"x_[a-z]*":{"type":"number"}},
 "additionalProperties":{"type":"string"}}
EOF
for i in $(seq 1 20); do
  if [ $((i % 3)) = 0 ]; then
    printf '{"a":0,"x_k":%d}' "$i" > "$vdir/doc$i.json"       # INVALID
  else
    printf '{"a":%d,"x_k":2,"note":"ok"}' "$i" > "$vdir/doc$i.json"
  fi
  echo "$vdir/doc$i.json" >> "$vdir/list"
done
a() { $J validate -s "$vdir/schema.json" --files-from "$vdir/list"; }
b() { $J validate -s "$vdir/schema.json" --jobs 2 --files-from "$vdir/list"; }
same "compiled validate --jobs 1 and 2"
[ "$status" = 1 ] || fail "compiled validate batch: expected exit 1 (mixed verdicts), got $status"
has "$out" INVALID || fail "compiled validate batch found no INVALID document"
rm -rf "$vdir"

# Stream bench agreement mode: run_stream vs tree vs interpreter on
# the catalog corpus plus the peak-heap gate (streaming heap growth
# must sit >= 10x below the tree route's).
out=$(run 300 _build/default/bench/main.exe stream)
has "$out" "stream agreement: COMPLETE" || fail "stream bench did not report complete agreement: $out"

# The JSL streaming example runs its formula through Validate.Plan.of_jsl
# and run_stream: of its 1000 events, the 11 with "kind" removed must be
# the only invalid ones.
out=$(run 120 _build/default/examples/streaming_validation.exe)
has "$out" "valid=989 invalid=11 " || fail "streaming_validation example: expected valid=989 invalid=11: $out"

# Streaming CLI wiring, part 1: --stream over --files-from prints
# byte-identical path<TAB>verdict lines to the tree path — including
# the rendered error for a malformed document — and exits 1 on mixed
# verdicts, exactly like the tree path does.
sdir="$tmp/sdir"
mkdir "$sdir"
cat > "$sdir/schema.json" <<'EOF'
{"type":"object","required":["a"],
 "properties":{"a":{"type":"number","minimum":1}},
 "additionalProperties":{"type":"string"}}
EOF
for i in $(seq 1 30); do
  if [ "$i" = 7 ]; then
    printf '{"a":1,' > "$sdir/doc$i.json"                      # malformed
  elif [ $((i % 4)) = 0 ]; then
    printf '{"a":0}' > "$sdir/doc$i.json"                      # INVALID
  else
    printf '{"a":%d,"note":"ok"}' "$i" > "$sdir/doc$i.json"
  fi
  echo "$sdir/doc$i.json" >> "$sdir/list"
done
a() { $J validate -s "$sdir/schema.json" "$@"; }
b() { $J validate -s "$sdir/schema.json" --stream "$@"; }
same "validate --files-from, tree and --stream" --files-from "$sdir/list"
[ "$status" = 1 ] || fail "validate --stream --files-from: expected exit 1, got $status"

# Streaming CLI wiring, part 2: NDJSON mode (one document per line,
# path:line<TAB>result) with a malformed line folded into a per-line
# error; --jobs 2, and four lanes over many small windows, print what
# the sequential run prints; so does stdin.  (How the lexer itself is
# fed, down to 1-byte chunks, is test/oracle.ml's validate kind.)
nd="$sdir/docs.ndjson"
for i in $(seq 1 200); do
  if [ "$i" = 50 ]; then
    echo '{"a":1,"broken"'
  elif [ $((i % 5)) = 0 ]; then
    echo '{"a":0}'
  else
    printf '{"a":%d,"note":"ok"}\n' "$i"
  fi
done > "$nd"
a() { $J validate -s "$sdir/schema.json" --stream "$nd"; }
b() { $J validate -s "$sdir/schema.json" --stream --jobs "$1" "$nd"; }
same "NDJSON --stream --jobs 1 and 2" 2
[ "$(printf '%s\n' "$out" | wc -l)" = 200 ] || fail "NDJSON --stream expected 200 result lines: $out"
has "$out" ":50	error:" || fail "malformed NDJSON line did not fold into a per-line error: $out"
same "NDJSON --stream --jobs 1 and 4" 4
b() { $J validate -s "$sdir/schema.json" --stream - < "$nd"; }
norm="s|^-:|$nd:|"
same "NDJSON --stream, file and stdin"
# Documents longer than the readers' 64 KiB slices — a long string,
# and many short members so that tokens straddle slice boundaries —
# read inline, as NDJSON with --stream, and one file each with
# --stream --files-from, get the verdicts the tree route gives each
# file through --files-from.
long="$sdir/long"
mkdir "$long"
awk 'BEGIN { printf "{\"a\":1,\"note\":\""; for (i = 0; i < 9000; i++) printf "abcdefgh"
             printf "\"}" }' > "$long/1.json"
for first in 0 2; do
  awk -v a="$first" 'BEGIN { printf "{\"a\":%d", a
                             for (i = 0; i < 12000; i++) printf ",\"k%d\":\"v%d\"", i, i
                             printf "}" }' > "$long/a$first.json"
done
awk 'BEGIN { printf "{\"a\":3"; for (i = 0; i < 12000; i++) printf ",\"k%d\":%d", i, i
             printf "}" }' > "$long/4.json"
for f in 1 a0 a2 4; do
  echo "$long/$f.json" >> "$long/list"
  cat "$long/$f.json"
  echo
done > "$long/all.ndjson"
# the verdict column of every route's rows
verdicts='s/^valid	.*/valid/; s/^INVALID	.*/INVALID/; s/.*	//'
a() { $J validate -s "$sdir/schema.json" --files-from "$long/list"; }
for route in "" --stream; do
  b() { $J validate -s "$sdir/schema.json" $1 "$long/all.ndjson"; }
  norm=$verdicts
  same "documents past 64 KiB, --files-from and inline $route" "$route"
done
b() { $J validate -s "$sdir/schema.json" --stream --files-from "$long/list"; }
norm=$verdicts
same "documents past 64 KiB, --files-from and --stream --files-from"
[ "$out" = "$(printf 'valid\nINVALID\nvalid\nINVALID')" ] \
  || fail "documents past 64 KiB: verdicts $out"

# Streaming RSS ceiling: validating ~100 MB of NDJSON must complete
# inside a 512 MB address-space limit at --jobs 1 and 2 — NDJSON memory
# follows one window of lines plus the longest line, not the file
# (ulimit -v in a subshell so the limit dies with it; not at --jobs 4,
# whose domain spawns need more address space than the limit allows).
# The same ceiling holds for the commands that read collections: eval,
# validate, find and a $match/$project aggregate cut their input into
# documents and answer each on its own, so memory follows the window,
# not the file — over the 100 MB of 16 KB lines and over about 100 MB
# of small documents.  Output goes to a file and is counted there.
big="$sdir/big.ndjson"
awk 'BEGIN {
  for (l = 0; l < 6400; l++) {
    printf "{\"a\":%d,\"pad\":\"", l + 1
    for (i = 0; i < 1023; i++) printf "xxxxxxxxxxxxxxx "
    printf "\"}\n"
  }
}' > "$big"
small="$sdir/small.ndjson"
awk 'BEGIN { for (i = 1; i <= 3400000; i++) printf "{\"a\":%d,\"note\":\"n%d\"}\n", i, i % 1000 }' \
  > "$small"
coll_run() {  # COMMAND JOBS FILE, under the limit; output in $sdir/coll.out
  case $1 in
    stream) set -- validate -s "$sdir/schema.json" --stream --jobs "$2" "$3" ;;
    eval) set -- eval '<.a>' --jobs "$2" "$3" ;;
    validate) set -- validate -s "$sdir/schema.json" --jobs "$2" "$3" ;;
    find) set -- find '{"a": {"$gte": 1}}' --jobs "$2" "$3" ;;
    aggregate)
      set -- aggregate '[{"$match": {"a": {"$gte": 1}}}, {"$project": {"a": 1}}]' \
        --jobs "$2" "$3" ;;
  esac
  (ulimit -v 524288 2>/dev/null || true
   exec timeout 300 "$JSONLOGIC" "$@" > "$sdir/coll.out")
}
for coll in stream eval validate find aggregate; do
  for coll_input in "$big 6400" "$small 3400000"; do
    coll_file=${coll_input% *} coll_want=${coll_input#* }
    [ "$coll" = stream ] && [ "$coll_file" = "$small" ] && continue
    for coll_jobs in 1 2; do
      coll_status=0
      coll_run "$coll" "$coll_jobs" "$coll_file" || coll_status=$?
      coll_lines=$(wc -l < "$sdir/coll.out")
      case $coll in
        eval) coll_ok=$(grep -c '^true	' "$sdir/coll.out" || true) ;;
        validate) coll_ok=$(grep -c '^valid	' "$sdir/coll.out" || true) ;;
        stream) coll_ok=$(grep -c '	valid$' "$sdir/coll.out" || true) ;;
        *) coll_ok=$coll_lines ;;
      esac
      if [ "$coll_status" != 0 ] || [ "$coll_lines" != "$coll_want" ] \
         || [ "$coll_ok" != "$coll_want" ]; then
        tail -c 300 "$sdir/coll.out" >&2
        fail "$coll --jobs $coll_jobs on $coll_file under 512MB ulimit: exit $coll_status, $coll_lines lines ($coll_ok answered), want $coll_want"
      fi
    done
  done
done
rm -rf "$sdir"

# Serve smoke gate: a daemon on a temp socket answers a replayed
# NDJSON workload — valid, invalid, and malformed lines — with bytes
# identical to `validate --stream`, cold (fresh cache, inline schema)
# and warm (registered schema, cache hits), and shuts down cleanly.
svdir="$tmp/svdir"
mkdir "$svdir"
cat > "$svdir/schema.json" <<'EOF'
{"definitions":{"id":{"type":"number","minimum":1}},
 "type":"object","required":["a"],
 "properties":{"a":{"$ref":"#/definitions/id"}},
 "patternProperties":{"x_[a-z]*":{"type":"number"}},
 "additionalProperties":{"type":"string"}}
EOF
{
  for i in $(seq 1 30); do
    if [ $((i % 4)) = 0 ]; then printf '{"a":0,"x_k":%d}\n' "$i"
    elif [ $((i % 7)) = 0 ]; then printf '{"a":%d,"x_k":\n' "$i"   # malformed
    else printf '{"a":%d,"x_k":2,"note":"ok"}\n' "$i"; fi
  done
  printf '\n'            # blank line: skipped but counted, both paths
  printf '{"a":1}\n'
} > "$svdir/docs.ndjson"
# serve_up SOCKET LOG ARGS...: a daemon on SOCKET; its pid in $srv
serve_up() {
  sock=$1 log=$2
  shift 2
  timeout 300 "$JSONLOGIC" serve --socket "$sock" "$@" > "$log" 2>&1 &
  srv=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.1
  done
  cat "$log" >&2
  fail "serve daemon never bound its socket"
}
# serve_down SOCKET LOG: SHUTDOWN, and the daemon exits 0 and leaves no socket
serve_down() {
  $J client --socket "$1" --shutdown > /dev/null
  down=0
  wait "$srv" || down=$?
  [ "$down" = 0 ] || { cat "$2" >&2; fail "serve daemon exited $down after SHUTDOWN"; }
  [ ! -S "$1" ] || fail "serve daemon left its socket behind"
}
serve_up "$svdir/sock" "$svdir/serve.log" --jobs 2
a() { $J validate -s "$svdir/schema.json" --stream "$svdir/docs.ndjson"; }
b() { $J client --socket "$svdir/sock" -s "$svdir/schema.json" "$@" --stream "$svdir/docs.ndjson"; }
same "serve cold replay (inline schema) and validate --stream" --inline
[ "$status" = 1 ] || fail "serve gate corpus: validate --stream expected exit 1, got $status"
same "serve warm replay (registered schema) and validate --stream"
# counters went up, and the warm pass actually hit the cache
out=$($J client --socket "$svdir/sock" --server-metrics)
if has "$out" '"serve.plan_cache.hit":0'; then
  fail "warm serve replay never hit the plan cache: $out"
fi
has "$out" "serve.requests" || fail "serve metrics line malformed: $out"
serve_down "$svdir/sock" "$svdir/serve.log"
# Serve metrics gate: one client session (SCHEMA, eight VALIDATE,
# SHUTDOWN) against `serve --metrics` prints the same counter lines at
# --jobs 1 and 2, apart from the domains the pool spawned; at --jobs 2
# the documents run on a pool domain and their counts must still reach
# the dump.
head -n 8 "$svdir/docs.ndjson" > "$svdir/few.ndjson"
for jobs in 1 2; do
  timeout 120 "$JSONLOGIC" serve --metrics --socket "$svdir/m.sock" --jobs "$jobs" \
    > "$svdir/m.log" 2> "$svdir/m$jobs.err" &
  m_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$svdir/m.sock" ] && break
    sleep 0.1
  done
  c_status=0
  $J client --socket "$svdir/m.sock" -s "$svdir/schema.json" \
    --stream --shutdown "$svdir/few.ndjson" > /dev/null || c_status=$?
  m_status=0
  wait "$m_pid" || m_status=$?
  if [ "$c_status:$m_status" != 1:0 ]; then
    cat "$svdir/m.log" "$svdir/m$jobs.err" >&2
    fail "serve --metrics --jobs $jobs: client exited $c_status (want 1), daemon $m_status"
  fi
  grep -v -e 'count=' -e '^par\.pool\.domains ' "$svdir/m$jobs.err" > "$svdir/m$jobs.counters"
done
cmp -s "$svdir/m1.counters" "$svdir/m2.counters" \
  || { diff "$svdir/m1.counters" "$svdir/m2.counters" >&2
       fail "serve --metrics counters differ between --jobs 1 and 2"; }
grep -q '^validate\.stream\.runs ' "$svdir/m2.counters" \
  || fail "serve --metrics --jobs 2 dump lacks validate.stream.runs"
rm -rf "$svdir"

# Serve bench gate: daemon verdicts equal the in-process stream
# checker's on the catalog corpus plus malformed documents, and the
# warm plan cache clears 2x cold (the bench exits 1 otherwise).
run 300 _build/default/bench/main.exe serve

# Corpus index gate, part 1: build the persistent index over a
# generated NDJSON corpus and compare `index query` verdicts with
# `eval --files-from` over the same lines — including the rendered
# parse error for malformed lines and the unterminated final line.
# Per-line files are written without a trailing newline and named by
# line number so the two outputs align after stripping the directory
# prefix.  (Index against reparse on every construct, and JSONPath,
# are test/oracle.ml's root kind; these queries check the wiring and
# the on-disk corpus.)
ixdir="$tmp/ixdir"
mkdir "$ixdir"
ndx="$ixdir/corpus.ndjson"
for i in $(seq 1 120); do
  if [ $((i % 29)) = 0 ]; then
    printf '{"name":{"first":\n'                                 # malformed
  elif [ $((i % 4)) = 0 ]; then
    printf '{"name":{"first":"John","last":"Doe"},"orders":[{"status":"shipped","lines":[{"sku":"SKU-%d","qty":%d}]}]}\n' "$i" "$i"
  elif [ $((i % 4)) = 1 ]; then
    printf '{"id":%d,"tags":["a","b"],"meta":{"next":"none"}}\n' "$i"
  elif [ $((i % 4)) = 2 ]; then
    printf '[%d,{"value":%d},"end"]\n' "$i"
  else
    printf '"scalar-%d"\n' "$i"
  fi
done > "$ndx"
# arrays nested inside earlier elements: a later element's id lies past
# the whole subtree of the one before it
printf '{"m":[[0,[1,2,3,4]],[5],6,7]}\n' >> "$ndx"
printf '{"m":[[[1,[2,3]],4],[5,[6,[7,8,9]]],[],10]}\n' >> "$ndx"
printf '[[1,[2,[3,4,5]]],[6],{"m":[8,9]},[10,11,12,13]]\n' >> "$ndx"
# an array past the 1 024 positions the index lists
printf '{"m":[%s]}\n' "$(seq -s, 0 1100)" >> "$ndx"
printf '{"tail":{"name":{"first":"Sue"}}}' >> "$ndx"           # no final \n
nlines=0
while IFS= read -r ixline || [ -n "$ixline" ]; do
  nlines=$((nlines + 1))
  printf '%s' "$ixline" > "$ixdir/$nlines"
  echo "$ixdir/$nlines" >> "$ixdir/list"
done < "$ndx"
run 120 "$JSONLOGIC" index build "$ndx" -o "$ixdir/corpus.idx" > /dev/null
info_out=$(run 60 "$JSONLOGIC" index info "$ixdir/corpus.idx")
for info_line in "format JLIXIDX5 v5)" "documents: $nlines (4 parse errors)" \
  "position postings: " "values: " "value postings: "; do
  has "$info_out" "$info_line" || fail "index info lacks '$info_line': $info_out"
done
case $info_out in
  *capped* | *dropped* | *disabled*) fail "index info still reports value caps: $info_out" ;;
esac
# (eval exits 1 on the malformed lines' error rows; index query prints
# them and exits 0)
a() { $J index query "$ixdir/corpus.idx" "$1"; }
b() { $J eval --files-from "$ixdir/list" "$1" || [ $? = 1 ]; }
for q in '<.name.first>' 'eq(.name.first, "John")' \
         '<.orders[0].lines[0].sku> & !<.no_such_key>' '<.tags[-1]>' \
         '<.orders[0:*]?(eq(.status, "shipped"))>' '<.orders[-1].lines[0]>' \
         '<.tags[-2:*]>' '<(.~/.*/)*.sku>' 'eq(.name.first, .name.last)' \
         '<.m[3]>' '<.m[1][0]>' '<.m[0][1][3]>' '<.m[-2]>' '<.m[1:2]>' \
         '<[2]>' '<.m[1023]>' '<.m[1024]>' '<.m[1025]>' '<.m[1100]>' \
         '<.m[1101]>' '<.m[-1]>' '<.m[-1101]>' '<.m[-1102]>' \
         '<.m[1020:1030]>' '<.m[1024:*]>' 'eq(.m[1050], 1050)' \
         'eq(.m[-1], 1100)' 'eq(eps, "scalar-3")' 'eq(.orders[0].lines[0].qty, 4)' \
         'eq(.name.first, "NoSuchNameAnywhere")' '<.id> & eq(.tags[0], "a")' \
         'eq(.name.first, "John") | eq(.tail.name.first, "Sue")' '<.meta.next>' \
         '<[1].value>' '!<.name.first>' '<.name.first> & !<.orders[0].lines[0].qty>' \
         '<.id> & !<.tags[1]>' '!eq(.meta.next, "none")'; do
  norm="s|^$ixdir/||"
  same "index query and eval --files-from on $q" "$q"
  [ "$(printf '%s\n' "$out" | wc -l)" = "$nlines" ] || fail "index query $q: $out"
done
# ... and reparses nothing but the 4 malformed lines (their verdict is
# the parse error)
reparsed=$($J index query --metrics "$ixdir/corpus.idx" '<.tags[-1]>' 2>&1 >/dev/null \
  | grep -E '^index\.query\.reparsed ' || true)
has "$reparsed" " 4" || fail "<.tags[-1]> did not reparse exactly 4 lines: $reparsed"
# --jsonpath spelling answers like the equivalent existential formula
b() { $J index query --jsonpath '$.name.first' "$ixdir/corpus.idx"; }
same "index query --jsonpath and the JNL spelling" '<.name.first>'
jnl=$out

# INDEXQ smoke replay: the daemon's DATA payload is byte-identical to
# the `index query` CLI rows (under the same budget flags), and its
# counters move.  The daemon keeps the reader open, so a second pass
# answers the malformed lines from the reader's error-line cells.
indexq_replay() {  # budget flags, for `index query` as the daemon got them
  a() { $J index query "$@" "$ixdir/corpus.idx" "$sq"; }
  b() { $J client --socket "$ixsock" --index "$ixdir/corpus.idx" --query "$sq"; }
  for pass in 1 2; do
    for sq in 'eq(.name.first, "John")' '<.name.first>' '<.tags[-1]>' \
      'eq(.name.first, .name.last)' '<.meta.next>' '<.id> & !<.tags[1]>'; do
      same "INDEXQ pass $pass and index query $* on $sq" "$@"
      [ -n "$out" ] || fail "INDEXQ answered nothing on $sq"
    done
  done
}
ixsock="$ixdir/indexq.sock"
serve_up "$ixsock" "$ixdir/serve.log"
indexq_replay
# a bad formula is an ERR (exit 1), not a dead daemon
exits 1 client --socket "$ixsock" --index "$ixdir/corpus.idx" --query 'eq(.name,'
out=$($J client --socket "$ixsock" --server-metrics)
case $out in
  *'"serve.indexq.requests":0'* | *'"serve.indexq.open_hits":0'*)
    fail "INDEXQ counters never moved: $out" ;;
esac
has "$out" "serve.indexq.requests" || fail "serve metrics line lacks indexq counters: $out"
serve_down "$ixsock" "$ixdir/serve.log"
# other budget limits: a daemon under --max-depth 64 (deep enough for
# the replayed formulas and documents) answers like index query under
# the same flag, on both passes
serve_up "$ixsock" "$ixdir/serve.log" --max-depth 64
indexq_replay --max-depth 64
serve_down "$ixsock" "$ixdir/serve.log"

# Crash safety: a rebuild killed mid-write (file-size limit, SIGXFSZ
# ignored so the write fails) exits 1 with error:, leaves the previous
# index byte-identical and no temporary file behind; two concurrent
# builds of two corpora into one output leave a file that opens and
# equals one of the two solo builds.  The corpus is the gate corpus
# forty times over, so the index outgrows the limit: 64 blocks are
# 32 KiB or 64 KiB, as the shell counts them.
big="$ixdir/big.ndjson"
for _ in $(seq 1 40); do cat "$ndx"; echo; done > "$big"
run 120 "$JSONLOGIC" index build "$big" -o "$ixdir/big.idx" > /dev/null
[ "$(wc -c < "$ixdir/big.idx")" -gt 65536 ] \
  || fail "the crash-safety index fits under the file-size limit"
cp "$ixdir/big.idx" "$ixdir/big.before"
fsz_status=0
fsz_out=$( (trap '' XFSZ; ulimit -f 64
            exec "$JSONLOGIC" index build "$big" -o "$ixdir/big.idx") 2>&1) \
  || fsz_status=$?
[ "$fsz_status" = 1 ] || fail "size-limited rebuild: expected exit 1, got $fsz_status ($fsz_out)"
has "$fsz_out" "error: File too large" || fail "size-limited rebuild did not stop at the limit: $fsz_out"
cmp -s "$ixdir/big.idx" "$ixdir/big.before" || fail "size-limited rebuild changed the previous index"
if ls "$ixdir" | grep -q '\.tmp$'; then
  fail "size-limited rebuild left a temporary file: $(ls "$ixdir")"
fi
big2="$ixdir/big2.ndjson"
{ cat "$big"; cat "$ndx"; } > "$big2"
run 120 "$JSONLOGIC" index build "$big2" -o "$ixdir/big2.idx" > /dev/null
race_a=0
race_b=0
"$JSONLOGIC" index build "$big" -o "$ixdir/race.idx" > /dev/null &
pid_a=$!
"$JSONLOGIC" index build "$big2" -o "$ixdir/race.idx" > /dev/null &
pid_b=$!
wait "$pid_a" || race_a=$?
wait "$pid_b" || race_b=$?
[ "$race_a:$race_b" = 0:0 ] || fail "concurrent builds exited $race_a and $race_b"
run 60 "$JSONLOGIC" index info "$ixdir/race.idx" > /dev/null
if ! cmp -s "$ixdir/race.idx" "$ixdir/big.idx" \
   && ! cmp -s "$ixdir/race.idx" "$ixdir/big2.idx"; then
  fail "concurrent builds left a file equal to neither solo build"
fi
rm -f "$big" "$big2" "$ixdir"/big*.idx "$ixdir/big.before" "$ixdir/race.idx"

# Corpus index gate, part 2: the index stays queryable read-only —
# mmap needs no write access.
chmod 444 "$ixdir/corpus.idx"
[ "$($J index query "$ixdir/corpus.idx" '<.name.first>')" = "$jnl" ] \
  || fail "read-only (chmod 444) index query differs"

# Corpus index gate, part 3: corruption and truncation are refused
# with a structured error (exit 1, error: line), never a crash; so is
# a stale corpus (bytes appended after the build).
idx_size=$(wc -c < "$ixdir/corpus.idx")
for ixoff in 9 $((idx_size / 2)); do
  cp "$ixdir/corpus.idx" "$ixdir/bad.idx"
  chmod 644 "$ixdir/bad.idx"
  printf '\252\252\252\252' \
    | dd of="$ixdir/bad.idx" bs=1 seek="$ixoff" conv=notrunc 2>/dev/null
  exits 1 index query "$ixdir/bad.idx" '<.name.first>'
  has "$out" "error:" || fail "corrupted index (offset $ixoff) did not print error: $out"
done
for ixlen in 100 $((idx_size / 3)) $((idx_size - 1)); do
  head -c "$ixlen" "$ixdir/corpus.idx" > "$ixdir/trunc.idx"
  exits 1 index info "$ixdir/trunc.idx"
done
printf '\n{"late":1}\n' >> "$ndx"
exits 1 index query "$ixdir/corpus.idx" '<.name.first>'
has "$out" "stale index" || fail "stale corpus error does not say stale index: $out"
rm -rf "$ixdir"

# Corpus bench gate: indexed verdicts equal the reparse-everything
# baseline's on a generated mixed corpus, and the index clears 10x
# overall and 50x on the eq class (the bench exits 1 otherwise).  8 MB
# here for CI time; the default is 100 MB.
run 600 env BENCH_CORPUS_MB=8 _build/default/bench/main.exe corpus

# Aggregation CLI wiring: --files-from across 2 domains is
# byte-identical to the sequential run on a grouping pipeline
# (streaming prefix sharded, blocking suffix joined in input order),
# over one file per document of a generated collection.  Ingestion is
# sharded too, yet the first bad file in list order (here a malformed
# one listed before a missing one) fails the run at every --jobs.
agdir="$tmp/agdir"
mkdir "$agdir"
for i in $(seq 1 60); do
  if [ $((i % 3)) = 0 ]; then
    printf '{"orders":[{"status":"shipped","total":%d},{"total":%d}],"age":%d}' \
      "$i" $((i * 2)) $((i % 50))
  elif [ $((i % 3)) = 1 ]; then
    printf '{"orders":[],"age":%d}' $((i % 50))
  else
    printf '{"name":"n%d","age":%d}' "$i" $((i % 50))
  fi > "$agdir/doc$i.json"
  echo "$agdir/doc$i.json" >> "$agdir/list"
done
grp_pl='[{"$match": {"orders": {"$exists": true}}}, {"$unwind": "$orders"},
         {"$group": {"_id": "$orders.status", "n": {"$count": {}},
                     "sum": {"$sum": "$orders.total"}}},
         {"$sort": {"sum": 0}}]'
a() { $J aggregate --files-from "$1" --jobs 1 "$grp_pl"; }
b() { $J aggregate --files-from "$1" --jobs 2 "$grp_pl"; }
same "aggregate --jobs 1 and 2" "$agdir/list"
[ -n "$out" ] || fail "aggregate printed nothing"
printf '{"x":' > "$agdir/bad.json"
{ head -20 "$agdir/list"; echo "$agdir/bad.json"; echo "$agdir/missing.json"
  tail -20 "$agdir/list"; } > "$agdir/badlist"
a() { $J aggregate --files-from "$1" --jobs 1 "$grp_pl" 2>&1 >/dev/null; }
b() { $J aggregate --files-from "$1" --jobs 2 "$grp_pl" 2>&1 >/dev/null; }
same "aggregate --jobs 1 and 2 over a bad list" "$agdir/badlist"
case $status:$out in
  "1:error: $agdir/bad.json: "*) ;;
  *) fail "aggregate over a bad list: exit $status: $out" ;;
esac
rm -rf "$agdir"

# Repository benchmark self-test: every workload at tiny sizes, every
# metric printed with its unit, the JSON keys exactly BENCHMARK.json's,
# and a corrupted expected answer counted as a failure.
run 600 python3 perfbench/run.py --self-test

# --metrics must produce the per-phase dump (on stderr)
out=$(echo '{"a":[1,2,1]}' | $J parse --metrics - 2>&1 >/dev/null)
case $out in
  *"parse.values"*"phase.parse"*) ;;
  *) fail "--metrics dump missing expected entries: $out" ;;
esac

echo "ci: all checks passed"
