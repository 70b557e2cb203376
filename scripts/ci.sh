#!/bin/sh
# CI entry point: build, full test suite, and the budget regression
# gate, all under hard timeouts so a runaway search or an accidental
# unbounded recursion fails the job instead of hanging it.
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

run 600 dune build @all
run 600 dune runtest

# Budget regression gate, exercised through the shipped binary so the
# CLI wiring is covered too.  A 100k-deep document must produce a
# structured error (exit 1 with an error: line), never a crash (exit
# 2+) or a hang — and the same input must pass when the ceiling is
# lifted.
JSONLOGIC=_build/default/bin/jsonlogic.exe
# Every gate keeps its files under one temporary root, removed on any
# exit: a gate that fails leaves nothing behind.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
deep="$tmp/deep.json"
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "["; printf "1";
             for (i = 0; i < 100000; i++) printf "]" }' > "$deep"

status=0
out=$(timeout 60 "$JSONLOGIC" parse "$deep" 2>&1) || status=$?
if [ "$status" != 1 ]; then
  echo "FAIL: 100k-deep parse: expected exit 1, got $status ($out)" >&2
  exit 1
fi
case $out in
  *"depth"*) ;;
  *) echo "FAIL: 100k-deep parse error does not mention depth: $out" >&2
     exit 1 ;;
esac

# the same input class passes once the ceiling is lifted (20k here:
# above the 10k default; the parser is linear in depth, but the pretty
# printer's indentation makes output quadratic, so stay modest)
deep20="$tmp/deep20"
awk 'BEGIN { for (i = 0; i < 20000; i++) printf "["; printf "1";
             for (i = 0; i < 20000; i++) printf "]" }' > "$deep20"
run 60 "$JSONLOGIC" parse --max-depth 30000 "$deep20" > /dev/null
rm -f "$deep20"

status=0
out=$(timeout 60 "$JSONLOGIC" parse --fuel 3 "$deep" 2>&1) || status=$?
if [ "$status" != 1 ]; then
  echo "FAIL: fuel-3 parse: expected exit 1, got $status ($out)" >&2
  exit 1
fi
case $out in
  *"fuel"*) ;;
  *) echo "FAIL: fuel-3 parse error does not mention fuel: $out" >&2
     exit 1 ;;
esac

# Wide-input gate: reading JSON is linear in an object's keys, and
# checking and compiling a schema linear in its definitions.  A
# 128k-key object must parse, and a 32k-definition schema (each
# definition referenced from one property, in 128 groups of 256, so
# both flat and nested conjunctions are exercised) must validate well
# inside 20 s; a list scan per key or per definition takes minutes.
wide="$tmp/wide"
wide_schema="$tmp/wide_schema"
wide_docs="$tmp/wide_docs"
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
             printf "}}" }' > "$wide_schema"
printf '%s\n' '{"g0":{"p1":5},"g127":{"p32767":6}}' '{"g0":{"p3":2}}' '{}' > "$wide_docs"
expected=$(printf 'valid\t%s\nINVALID\t%s\nvalid\t%s' \
  '{"g0":{"p1":5},"g127":{"p32767":6}}' '{"g0":{"p3":2}}' '{}')
echo "+ timeout 20s $JSONLOGIC validate --schema <32k definitions>"
status=0
out=$(timeout 20 "$JSONLOGIC" validate --schema "$wide_schema" \
        "$wide_docs") || status=$?
if [ "$status" != 1 ] || [ "$out" != "$expected" ]; then
  echo "FAIL: wide schema validate: exit $status, output:" >&2
  echo "$out" >&2
  rm -f "$wide" "$wide_schema" "$wide_docs"
  exit 1
fi

# Looking a key up in a wide object is O(1) expected: the 128k-key
# object against a schema requiring every one of its keys, through
# the default route (a tree of the parsed value), --files-from (a tree
# straight from the text) and --stream.  A scan per lookup takes
# about half a minute.
wide_req="$tmp/wide_req"
wide_list="$tmp/wide_list"
awk 'BEGIN { printf "{\"type\":\"object\",\"required\":[";
             for (i = 0; i < 131072; i++) printf "%s\"k%d\"", (i ? "," : ""), i;
             printf "]}" }' > "$wide_req"
{ cat "$wide"; printf '\n{"k0":0}\n'; } > "$wide_docs"
echo "$wide" > "$wide_list"
wide_check() {
  # wide_check NAME EXPECTED_STATUS EXPECTED_OUTPUT ARGS...
  name=$1 want_status=$2 want=$3
  shift 3
  echo "+ timeout 20s $JSONLOGIC validate <$name>"
  status=0
  out=$(timeout 20 "$JSONLOGIC" validate "$@") || status=$?
  if [ "$status" != "$want_status" ] || [ "$out" != "$want" ]; then
    echo "FAIL: wide validate ($name): exit $status, output:" >&2
    echo "$out" | cut -c1-200 >&2
    rm -f "$wide" "$wide_schema" "$wide_docs" "$wide_req" "$wide_list"
    exit 1
  fi
}
wide_check "required 128k keys" 1 \
  "$(printf 'valid\t%s\nINVALID\t{"k0":0}' "$(cat "$wide")")" \
  --schema "$wide_req" "$wide_docs"
wide_check "required 128k keys, --files-from" 0 \
  "$(printf '%s\tvalid' "$wide")" \
  --schema "$wide_req" --files-from "$wide_list"
wide_check "required 128k keys, --stream" 1 \
  "$(printf '%s:1\tvalid\n%s:2\tINVALID' "$wide_docs" "$wide_docs")" \
  --stream --schema "$wide_req" "$wide_docs"

rm -f "$wide" "$wide_schema" "$wide_docs" "$wide_req" "$wide_list"

# Batch CLI wiring: --files-from across 2 domains must produce one
# in-order line per input, agree with the sequential run, and fold a
# malformed document into a per-file error instead of dying.  Like
# inline eval, the run exits 1 when a row is an error, and 0 when every
# listed file parses.
batch_dir="$tmp/batch_dir"
mkdir "$batch_dir"
batch_list="$batch_dir/list"
for i in $(seq 1 40); do
  if [ "$i" = 23 ]; then
    printf '{"name":{"first":}' > "$batch_dir/doc$i.json"   # malformed
  else
    printf '{"name":{"first":"John"},"age":%d}' "$i" > "$batch_dir/doc$i.json"
    echo "$batch_dir/doc$i.json" >> "$batch_dir/good"
  fi
  echo "$batch_dir/doc$i.json" >> "$batch_list"
done
seq_status=0
seq_out=$(timeout 120 "$JSONLOGIC" eval --files-from "$batch_list" --jobs 1 \
  'eq(.name.first, "John")') || seq_status=$?
par_status=0
par_out=$(timeout 120 "$JSONLOGIC" eval --files-from "$batch_list" --jobs 2 \
  'eq(.name.first, "John")') || par_status=$?
good_status=0
good_out=$(timeout 120 "$JSONLOGIC" eval --files-from "$batch_dir/good" \
  --jobs 2 'eq(.name.first, "John")') || good_status=$?
rm -rf "$batch_dir"
if [ "$seq_status" != 1 ] || [ "$par_status" != 1 ]; then
  echo "FAIL: batch eval with a malformed file: expected exit 1, got $seq_status/$par_status" >&2
  exit 1
fi
if [ "$good_status" != 0 ] \
   || [ "$(printf '%s\n' "$good_out" | grep -c '	true$')" != 39 ]; then
  echo "FAIL: batch eval over well-formed files: exit $good_status" >&2
  printf '%s\n' "$good_out" >&2
  exit 1
fi
if [ "$seq_out" != "$par_out" ]; then
  echo "FAIL: batch eval --jobs 1 and --jobs 2 disagree" >&2
  printf '%s\n---\n%s\n' "$seq_out" "$par_out" >&2
  exit 1
fi
if [ "$(printf '%s\n' "$par_out" | wc -l)" != 40 ]; then
  echo "FAIL: batch eval expected 40 result lines: $par_out" >&2
  exit 1
fi
case $par_out in
  *"doc23.json	error:"*) ;;
  *) echo "FAIL: malformed batch document did not fold into a per-file error" >&2
     echo "$par_out" >&2
     exit 1 ;;
esac

# Missing inputs and unreachable endpoints are user errors: exit 1 with
# an error: line on stderr, never an uncaught exception (exit 125).
mdir="$tmp/mdir"
mkdir "$mdir"
echo '{}' > "$mdir/doc.json"
printf '%s\n%s\n' "$mdir/doc.json" "$mdir/missing.json" > "$mdir/list"
expect_user_error() {
  ue_status=0
  ue_err=$(timeout 60 "$JSONLOGIC" "$@" 2>&1 >/dev/null) || ue_status=$?
  case $ue_status:$ue_err in
    *uncaught*)
      echo "FAIL: jsonlogic $*: uncaught exception: $ue_err" >&2
      exit 1 ;;
    1:error:*) ;;
    *) echo "FAIL: jsonlogic $*: expected exit 1 and error:, got exit $ue_status: $ue_err" >&2
       exit 1 ;;
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
  for er_jobs in 1 2; do
    got_status=0
    timeout 60 "$JSONLOGIC" "$@" --jobs "$er_jobs" \
      > "$cidir/out" 2> "$cidir/err" || got_status=$?
    if [ "$got_status" != "$er_status" ] || [ "$(cat "$cidir/out")" != "$er_out" ] \
       || [ "$(cat "$cidir/err")" != "$er_err" ]; then
      echo "FAIL: jsonlogic $* --jobs $er_jobs: exit $got_status (want $er_status), stdout then stderr:" >&2
      cat "$cidir/out" "$cidir/err" >&2
      exit 1
    fi
  done
}
sue='{"name":{"first":"Sue"},"age":28,"tags":["a","b"]}'
john='{"name":{"first":"John"},"age":32}'
ana='{"name":{"first":"Ana"},"age":17}'
expect_run 0 "$(printf 'true\t%s\ntrue\t%s\ntrue\t%s' "$sue" "$john" "$ana")" "" \
  eval '<.name.first>' "$cidir/mixed.json"
expect_run 1 "$(printf 'valid\t%s\nvalid\t%s\nINVALID\t%s' "$sue" "$john" "$ana")" "" \
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
bad_cell=$(timeout 60 "$JSONLOGIC" validate -s "$cidir/any.json" "$bad" \
  | sed -n 2p | cut -f1) || true
bad_stream=$(timeout 60 "$JSONLOGIC" validate -s "$cidir/any.json" --stream "$bad" \
  | sed -n 2p | cut -f2) || true
if [ -z "$bad_cell" ] || [ "$bad_cell" != "$bad_stream" ]; then
  echo "FAIL: the bad line's cell '$bad_cell' is not validate --stream's '$bad_stream'" >&2
  exit 1
fi
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
if ! timeout 60 "$JSONLOGIC" select --metrics '$.a' "$cidir/doc934.json" 2>&1 >/dev/null \
     | grep -q '^parse\.direct\.docs  *1$'; then
  echo "FAIL: select --metrics does not read parse.direct.docs 1" >&2
  exit 1
fi
expect_run 1 "" "error: $cidir/a0.ndjson:1: $spent" find --fuel 5 "$or199" "$cidir/a0.ndjson"
expect_run 0 '{"a":0}' "" find "$or199" "$cidir/a0.ndjson"
expect_run 1 "" "error: $cidir/a0.ndjson:1: $spent" \
  aggregate --fuel 5 "[{\"\$match\":$or199}]" "$cidir/a0.ndjson"
expect_run 0 '{"a":0}' "" aggregate "[{\"\$match\":$or199}]" "$cidir/a0.ndjson"

# The read size is a constant: --chunk-bytes is a usage error (124).
for removed in "validate -s $cidir/any.json $cidir/a0.ndjson" "serve --socket $cidir/x.sock"; do
  rm_status=0
  rm_err=$(timeout 60 "$JSONLOGIC" $removed --chunk-bytes 7 2>&1 >/dev/null) || rm_status=$?
  case $rm_status:$rm_err in
    "124:jsonlogic: unknown option '--chunk-bytes'."*) ;;
    *) echo "FAIL: jsonlogic $removed --chunk-bytes 7: exit $rm_status: $rm_err" >&2
       exit 1 ;;
  esac
done
rm -rf "$cidir"

# Compiled-validate CLI wiring: the sequential and a 2-domain batch
# must print byte-identical path<TAB>verdict lines; mixed verdicts
# exit 1.
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
vstatus=0
v_plan=$(timeout 120 "$JSONLOGIC" validate -s "$vdir/schema.json" \
  --files-from "$vdir/list") || vstatus=$?
if [ "$vstatus" != 1 ]; then
  echo "FAIL: compiled validate batch: expected exit 1 (mixed verdicts), got $vstatus" >&2
  exit 1
fi
v_jobs2=$(timeout 120 "$JSONLOGIC" validate -s "$vdir/schema.json" \
  --jobs 2 --files-from "$vdir/list") || true
rm -rf "$vdir"
if [ "$v_plan" != "$v_jobs2" ]; then
  echo "FAIL: compiled validate --jobs 1 and --jobs 2 disagree" >&2
  printf '%s\n---\n%s\n' "$v_plan" "$v_jobs2" >&2
  exit 1
fi
case $v_plan in
  *"INVALID"*) ;;
  *) echo "FAIL: compiled validate batch found no INVALID document" >&2
     exit 1 ;;
esac

# Stream bench agreement mode: run_stream vs tree vs interpreter on
# the catalog corpus plus the peak-heap gate (streaming heap growth
# must sit >= 10x below the tree route's).
strm_out=$(run 300 _build/default/bench/main.exe stream)
case $strm_out in
  *"stream agreement: COMPLETE"*) ;;
  *) echo "FAIL: stream bench did not report complete agreement" >&2
     echo "$strm_out" >&2
     exit 1 ;;
esac

# The JSL streaming example runs its formula through Validate.Plan.of_jsl
# and run_stream: of its 1000 events, the 11 with "kind" removed must be
# the only invalid ones.
ex_out=$(run 120 _build/default/examples/streaming_validation.exe)
case $ex_out in
  *"valid=989 invalid=11 "*) ;;
  *) echo "FAIL: streaming_validation example: expected valid=989 invalid=11" >&2
     echo "$ex_out" >&2
     exit 1 ;;
esac

# Streaming CLI wiring, part 1: --stream over --files-from must print
# byte-identical path<TAB>verdict lines to the tree path — including
# the rendered error for a malformed document — and exit 1 on mixed
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
ts_status=0
s_tree=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --files-from "$sdir/list") || ts_status=$?
ss_status=0
s_stream=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream --files-from "$sdir/list") || ss_status=$?
if [ "$s_tree" != "$s_stream" ] || [ "$ss_status" != 1 ] || [ "$ts_status" != 1 ]; then
  echo "FAIL: validate --stream vs tree --files-from mismatch (exits $ts_status/$ss_status)" >&2
  printf '%s\n---\n%s\n' "$s_tree" "$s_stream" >&2
  exit 1
fi

# Streaming CLI wiring, part 2: NDJSON mode (one document per line,
# path:line<TAB>result) with a malformed line folded into a per-line
# error; --jobs 2 must produce byte-identical output to the sequential
# default run.
nd="$sdir/docs.ndjson"
: > "$nd"
for i in $(seq 1 200); do
  if [ "$i" = 50 ]; then
    echo '{"a":1,"broken"' >> "$nd"
  elif [ $((i % 5)) = 0 ]; then
    echo '{"a":0}' >> "$nd"
  else
    printf '{"a":%d,"note":"ok"}\n' "$i" >> "$nd"
  fi
done
nd1=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream "$nd") || true
nd2=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream --jobs 2 "$nd") || true
if [ "$nd1" != "$nd2" ] || [ -z "$nd1" ]; then
  echo "FAIL: NDJSON --stream --jobs 1 and --jobs 2 disagree" >&2
  printf '%s\n---\n%s\n' "$nd1" "$nd2" >&2
  exit 1
fi
if [ "$(printf '%s\n' "$nd1" | wc -l)" != 200 ]; then
  echo "FAIL: NDJSON --stream expected 200 result lines" >&2
  echo "$nd1" >&2
  exit 1
fi
case $nd1 in
  *":50	error:"*) ;;
  *) echo "FAIL: malformed NDJSON line did not fold into a per-line error" >&2
     echo "$nd1" >&2
     exit 1 ;;
esac

# Resumable feed lexer wiring: how input is read must be invisible in
# the output.  Four lanes over many small windows and stdin must print
# what the sequential file run prints.  (Part 1 compares the per-file
# stream route with the tree path; that the lexer's own feed
# granularity, down to 1-byte chunks, changes neither outcomes nor
# work counters is test_stream_validate's "keyword cases, chunked".)
nd4=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream --jobs 4 "$nd") || true
if [ "$nd4" != "$nd1" ]; then
  echo "FAIL: NDJSON --stream --jobs 4 output differs from the default" >&2
  printf '%s\n---\n%s\n' "$nd1" "$nd4" >&2
  exit 1
fi
std=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream - < "$nd") || true
if [ "$std" != "$(printf '%s' "$nd1" | sed "s|^$nd:|-:|")" ]; then
  echo "FAIL: stdin NDJSON differs from file path output" >&2
  printf '%s\n---\n%s\n' "$std" "$nd1" >&2
  exit 1
fi
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
long_want=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --files-from "$long/list" | cut -f2)
long_inline=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  "$long/all.ndjson" | cut -f1)
long_stream=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream "$long/all.ndjson" | cut -f2)
long_fed=$(timeout 120 "$JSONLOGIC" validate -s "$sdir/schema.json" \
  --stream --files-from "$long/list" | cut -f2)
if [ "$long_want" != "$(printf 'valid\nINVALID\nvalid\nINVALID')" ] \
   || [ "$long_inline" != "$long_want" ] || [ "$long_stream" != "$long_want" ] \
   || [ "$long_fed" != "$long_want" ]; then
  echo "FAIL: documents past 64 KiB: verdicts differ between routes" >&2
  printf 'tree --files-from:\n%s\ninline:\n%s\n--stream:\n%s\n--stream --files-from:\n%s\n' \
    "$long_want" "$long_inline" "$long_stream" "$long_fed" >&2
  exit 1
fi
echo "feed-lexer identity gate passed"

# Streaming RSS ceiling: validating ~100 MB of NDJSON must complete
# inside a 512 MB address-space limit at --jobs 1 and 2 — NDJSON memory
# follows one window of lines plus the longest line, not the file
# (ulimit -v in a subshell so the limit dies with it; not at --jobs 4,
# whose domain spawns need more address space than the limit allows).
big="$sdir/big.ndjson"
awk 'BEGIN {
  for (l = 0; l < 6400; l++) {
    printf "{\"a\":%d,\"pad\":\"", l + 1
    for (i = 0; i < 1023; i++) printf "xxxxxxxxxxxxxxx "
    printf "\"}\n"
  }
}' > "$big"
for big_jobs in 1 2; do
  big_status=0
  big_out=$( (ulimit -v 524288 2>/dev/null || true
              timeout 300 "$JSONLOGIC" validate -s "$sdir/schema.json" \
                --stream --jobs "$big_jobs" "$big") ) || big_status=$?
  if [ "$big_status" != 0 ]; then
    echo "FAIL: 100MB NDJSON --stream --jobs $big_jobs under 512MB ulimit: exit $big_status" >&2
    printf '%s\n' "$big_out" | tail -5 >&2
    exit 1
  fi
  if [ "$(printf '%s\n' "$big_out" | wc -l)" != 6400 ]; then
    echo "FAIL: 100MB NDJSON --stream --jobs $big_jobs expected 6400 result lines" >&2
    exit 1
  fi
  case $big_out in
    *INVALID*) echo "FAIL: 100MB NDJSON --stream --jobs $big_jobs reported INVALID lines" >&2
               exit 1 ;;
    *) ;;
  esac
done
# The same ceiling holds for the commands that read collections: eval,
# validate, find and a $match/$project aggregate cut their input into
# documents and answer each on its own, so memory follows the window,
# not the file — over the 100 MB of 16 KB lines above and over about
# 100 MB of small documents.  Output goes to a file, not to a shell
# variable, and is counted there.
small="$sdir/small.ndjson"
awk 'BEGIN { for (i = 1; i <= 3400000; i++) printf "{\"a\":%d,\"note\":\"n%d\"}\n", i, i % 1000 }' \
  > "$small"
coll_run() {  # COMMAND JOBS FILE, under the limit; output in $sdir/coll.out
  case $1 in
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
for coll in eval validate find aggregate; do
  for coll_input in "$big 6400" "$small 3400000"; do
    coll_file=${coll_input% *} coll_want=${coll_input#* }
    for coll_jobs in 1 2; do
      coll_status=0
      coll_run "$coll" "$coll_jobs" "$coll_file" || coll_status=$?
      coll_lines=$(wc -l < "$sdir/coll.out")
      case $coll in
        eval) coll_ok=$(grep -c '^true	' "$sdir/coll.out" || true) ;;
        validate) coll_ok=$(grep -c '^valid	' "$sdir/coll.out" || true) ;;
        *) coll_ok=$coll_lines ;;
      esac
      if [ "$coll_status" != 0 ] || [ "$coll_lines" != "$coll_want" ] \
         || [ "$coll_ok" != "$coll_want" ]; then
        echo "FAIL: $coll --jobs $coll_jobs on $coll_file under 512MB ulimit: exit $coll_status, $coll_lines lines ($coll_ok answered), want $coll_want" >&2
        tail -c 300 "$sdir/coll.out" >&2
        exit 1
      fi
    done
  done
done
rm -f "$sdir/coll.out" "$small"
rm -rf "$sdir"

# Serve smoke gate: a daemon on a temp socket must answer a replayed
# NDJSON workload — valid, invalid, and malformed lines — with bytes
# identical to `validate --stream`, cold (fresh cache, inline schema)
# and warm (registered schema, cache hits), and shut down cleanly.
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
cli_status=0
cli_out=$(timeout 120 "$JSONLOGIC" validate -s "$svdir/schema.json" \
  --stream "$svdir/docs.ndjson") || cli_status=$?
if [ "$cli_status" != 1 ]; then
  echo "FAIL: serve gate corpus: validate --stream expected exit 1, got $cli_status" >&2
  exit 1
fi
timeout 300 "$JSONLOGIC" serve --socket "$svdir/sock" --jobs 2 \
  > "$svdir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$svdir/sock" ] && break
  sleep 0.1
done
if ! [ -S "$svdir/sock" ]; then
  echo "FAIL: serve daemon never bound its socket" >&2
  cat "$svdir/serve.log" >&2
  exit 1
fi
# cold: schema shipped inline with every request, cache starting empty
cold_status=0
cold_out=$(timeout 120 "$JSONLOGIC" client --socket "$svdir/sock" \
  -s "$svdir/schema.json" --inline --stream "$svdir/docs.ndjson") || cold_status=$?
# warm: register once, validate by schema-id (all hits)
warm_status=0
warm_out=$(timeout 120 "$JSONLOGIC" client --socket "$svdir/sock" \
  -s "$svdir/schema.json" --stream "$svdir/docs.ndjson") || warm_status=$?
for pass in cold warm; do
  if [ "$pass" = cold ]; then got=$cold_out; gots=$cold_status
  else got=$warm_out; gots=$warm_status; fi
  if [ "$gots" != "$cli_status" ]; then
    echo "FAIL: serve $pass replay: exit $gots, validate --stream exited $cli_status" >&2
    exit 1
  fi
  if [ "$got" != "$cli_out" ]; then
    echo "FAIL: serve $pass replay is not byte-identical to validate --stream" >&2
    printf '%s\n---\n%s\n' "$got" "$cli_out" | head -20 >&2
    exit 1
  fi
done
# counters went up, and the warm pass actually hit the cache
sv_metrics=$(timeout 60 "$JSONLOGIC" client --socket "$svdir/sock" --server-metrics)
case $sv_metrics in
  *'"serve.plan_cache.hit":0'*)
    echo "FAIL: warm serve replay never hit the plan cache: $sv_metrics" >&2
    exit 1 ;;
  *"serve.requests"*) ;;
  *) echo "FAIL: serve metrics line malformed: $sv_metrics" >&2
     exit 1 ;;
esac
timeout 60 "$JSONLOGIC" client --socket "$svdir/sock" --shutdown > /dev/null
shutdown_status=0
wait "$serve_pid" || shutdown_status=$?
if [ "$shutdown_status" != 0 ]; then
  echo "FAIL: serve daemon exited $shutdown_status after SHUTDOWN" >&2
  cat "$svdir/serve.log" >&2
  exit 1
fi
if [ -S "$svdir/sock" ]; then
  echo "FAIL: serve daemon left its socket behind" >&2
  exit 1
fi
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
  timeout 60 "$JSONLOGIC" client --socket "$svdir/m.sock" -s "$svdir/schema.json" \
    --stream --shutdown "$svdir/few.ndjson" > /dev/null || c_status=$?
  m_status=0
  wait "$m_pid" || m_status=$?
  if [ "$c_status:$m_status" != 1:0 ]; then
    echo "FAIL: serve --metrics --jobs $jobs: client exited $c_status (want 1), daemon $m_status" >&2
    cat "$svdir/m.log" "$svdir/m$jobs.err" >&2
    exit 1
  fi
  grep -v -e 'count=' -e '^par\.pool\.domains ' "$svdir/m$jobs.err" > "$svdir/m$jobs.counters"
done
if ! cmp -s "$svdir/m1.counters" "$svdir/m2.counters"; then
  echo "FAIL: serve --metrics counters differ between --jobs 1 and 2:" >&2
  diff "$svdir/m1.counters" "$svdir/m2.counters" >&2
  exit 1
fi
if ! grep -q '^validate\.stream\.runs ' "$svdir/m2.counters"; then
  echo "FAIL: serve --metrics --jobs 2 dump lacks validate.stream.runs" >&2
  cat "$svdir/m2.err" >&2
  exit 1
fi
rm -rf "$svdir"

# Serve bench gate: daemon verdicts equal the in-process stream
# checker's on the catalog corpus plus malformed documents, and the
# warm plan cache clears 2x cold (the bench exits 1 otherwise).
run 300 _build/default/bench/main.exe serve

# Corpus index gate, part 1: build the persistent index over a
# generated NDJSON corpus and byte-compare `index query` verdicts
# against `eval --files-from` over the same lines — including the
# rendered parse error for malformed lines and the unterminated final
# line.  Per-line files are written without a trailing newline and
# named by line number so the two outputs align after stripping the
# directory prefix.
ixdir="$tmp/ixdir"
mkdir "$ixdir"
ndx="$ixdir/corpus.ndjson"
: > "$ndx"
for i in $(seq 1 120); do
  if [ $((i % 29)) = 0 ]; then
    printf '{"name":{"first":\n' >> "$ndx"                     # malformed
  elif [ $((i % 4)) = 0 ]; then
    printf '{"name":{"first":"John","last":"Doe"},"orders":[{"status":"shipped","lines":[{"sku":"SKU-%d","qty":%d}]}]}\n' "$i" "$i" >> "$ndx"
  elif [ $((i % 4)) = 1 ]; then
    printf '{"id":%d,"tags":["a","b"],"meta":{"next":"none"}}\n' "$i" >> "$ndx"
  elif [ $((i % 4)) = 2 ]; then
    printf '[%d,{"value":%d},"end"]\n' "$i" >> "$ndx"
  else
    printf '"scalar-%d"\n' "$i" >> "$ndx"
  fi
done
# arrays nested inside earlier elements: a later element's id lies past
# the whole subtree of the one before it
printf '{"m":[[0,[1,2,3,4]],[5],6,7]}\n' >> "$ndx"
printf '{"m":[[[1,[2,3]],4],[5,[6,[7,8,9]]],[],10]}\n' >> "$ndx"
printf '[[1,[2,[3,4,5]]],[6],{"m":[8,9]},[10,11,12,13]]\n' >> "$ndx"
# an array past the 1 024 positions the index lists
printf '{"m":[%s]}\n' "$(seq -s, 0 1100)" >> "$ndx"
printf '{"tail":{"name":{"first":"Sue"}}}' >> "$ndx"           # no final \n
nlines=0
: > "$ixdir/list"
while IFS= read -r ixline || [ -n "$ixline" ]; do
  nlines=$((nlines + 1))
  printf '%s' "$ixline" > "$ixdir/$nlines"
  echo "$ixdir/$nlines" >> "$ixdir/list"
done < "$ndx"
run 120 "$JSONLOGIC" index build "$ndx" -o "$ixdir/corpus.idx" > /dev/null
info_out=$(run 60 "$JSONLOGIC" index info "$ixdir/corpus.idx")
for info_line in "format JLIXIDX5 v5)" "documents: $nlines (4 parse errors)" \
  "position postings: " "values: " "value postings: "; do
  case $info_out in
    *"$info_line"*) ;;
    *) echo "FAIL: index info lacks '$info_line'" >&2
       echo "$info_out" >&2
       exit 1 ;;
  esac
done
case $info_out in
  *capped* | *dropped* | *disabled*)
    echo "FAIL: index info still reports value caps" >&2
    echo "$info_out" >&2
    exit 1 ;;
esac
check_index_query() {  # formula
  iq=$(timeout 120 "$JSONLOGIC" index query "$ixdir/corpus.idx" "$1") \
    || true
  ev=$(timeout 120 "$JSONLOGIC" eval --files-from "$ixdir/list" "$1" \
       | sed "s|^$ixdir/||") || true
  if [ "$iq" != "$ev" ] || [ -z "$iq" ]; then
    echo "FAIL: index query vs eval --files-from disagree on: $1" >&2
    printf '%s\n---\n%s\n' "$iq" "$ev" | head -20 >&2
    exit 1
  fi
}
check_index_query '<.name.first>'
check_index_query 'eq(.name.first, "John")'
check_index_query '<.orders[0].lines[0].sku> & !<.no_such_key>'
check_index_query '<.tags[-1]>'
check_index_query '<.orders[0:*]?(eq(.status, "shipped"))>'
# every construct but EQ(α,β) and non-scalar eq answers from postings:
# negative indices and ranges (the last-element bit), regex keys under
# a star; EQ(α,β) reparses the documents its relaxation admits
check_index_query '<.orders[-1].lines[0]>'
check_index_query '<.tags[-2:*]>'
check_index_query '<(.~/.*/)*.sku>'
check_index_query 'eq(.name.first, .name.last)'
# positions past nested elements, negative indices and windows; on the
# 1 101-element array, steps on both sides of the position cap (those
# past it hop siblings from the last listed position)
for nq in '<.m[3]>' '<.m[1][0]>' '<.m[0][1][3]>' '<.m[-2]>' '<.m[1:2]>' \
          '<[2]>' '<.m[1023]>' '<.m[1024]>' '<.m[1025]>' '<.m[1100]>' \
          '<.m[1101]>' '<.m[-1]>' '<.m[-1101]>' '<.m[-1102]>' \
          '<.m[1020:1030]>' '<.m[1024:*]>' 'eq(.m[1050], 1050)' \
          'eq(.m[-1], 1100)'; do
  check_index_query "$nq"
done
# ... and reparses nothing but the 4 malformed lines (their verdict is
# the parse error)
reparsed=$(timeout 60 "$JSONLOGIC" index query --metrics "$ixdir/corpus.idx" \
  '<.tags[-1]>' 2>&1 >/dev/null | grep -E '^index\.query\.reparsed ' || true)
case $reparsed in
  *" 4") ;;
  *) echo "FAIL: <.tags[-1]> did not reparse exactly 4 lines: $reparsed" >&2
     exit 1 ;;
esac
# --jsonpath spelling answers like the equivalent existential formula
jp=$(timeout 60 "$JSONLOGIC" index query --jsonpath '$.name.first' \
  "$ixdir/corpus.idx")
jnl=$(timeout 60 "$JSONLOGIC" index query "$ixdir/corpus.idx" '<.name.first>')
if [ "$jp" != "$jnl" ]; then
  echo "FAIL: index query --jsonpath differs from the JNL spelling" >&2
  exit 1
fi

# eq pushdown gate: value-postings-seeded equalities (strings, numbers,
# the root path over bare-scalar lines, absent values, ranked
# conjunctions) answer byte-identically to eval --files-from — over
# this corpus's malformed lines and unterminated tail too
check_index_query 'eq(eps, "scalar-3")'
check_index_query 'eq(.orders[0].lines[0].qty, 4)'
check_index_query 'eq(.name.first, "NoSuchNameAnywhere")'
check_index_query '<.id> & eq(.tags[0], "a")'
check_index_query 'eq(.name.first, "John") | eq(.tail.name.first, "Sue")'

# INDEXQ smoke replay: the daemon's DATA payload must be byte-identical
# to the `index query` CLI rows (under the same budget flags), and its
# counters must move.  The daemon keeps the reader open, so a second
# pass answers the malformed lines from the reader's error-line cells.
start_indexq_daemon() {  # budget flags for `serve`
  ixsock="$ixdir/indexq.sock"
  timeout 300 "$JSONLOGIC" serve --socket "$ixsock" "$@" \
    > "$ixdir/serve.log" 2>&1 &
  ixsrv=$!
  for _ in $(seq 1 100); do
    [ -S "$ixsock" ] && break
    sleep 0.1
  done
  if ! [ -S "$ixsock" ]; then
    echo "FAIL: indexq serve daemon never bound its socket" >&2
    cat "$ixdir/serve.log" >&2
    exit 1
  fi
}
stop_indexq_daemon() {
  timeout 60 "$JSONLOGIC" client --socket "$ixsock" --shutdown > /dev/null
  ixsrv_status=0
  wait "$ixsrv" || ixsrv_status=$?
  if [ "$ixsrv_status" != 0 ]; then
    echo "FAIL: indexq serve daemon exited $ixsrv_status after SHUTDOWN" >&2
    cat "$ixdir/serve.log" >&2
    exit 1
  fi
}
indexq_replay() {  # budget flags for `index query`, as the daemon got
  for sq in 'eq(.name.first, "John")' '<.name.first>' '<.tags[-1]>' \
    'eq(.name.first, .name.last)'; do
    cli=$(timeout 120 "$JSONLOGIC" index query "$@" "$ixdir/corpus.idx" "$sq")
    daemon=$(timeout 60 "$JSONLOGIC" client --socket "$ixsock" \
      --index "$ixdir/corpus.idx" --query "$sq")
    if [ "$daemon" != "$cli" ] || [ -z "$daemon" ]; then
      echo "FAIL: INDEXQ payload differs from index query $* on: $sq" >&2
      printf '%s\n---\n%s\n' "$daemon" "$cli" | head -20 >&2
      exit 1
    fi
  done
}
start_indexq_daemon
indexq_replay
indexq_replay
# a bad formula is an ERR (exit 1), not a dead daemon
iqstatus=0
timeout 60 "$JSONLOGIC" client --socket "$ixsock" \
  --index "$ixdir/corpus.idx" --query 'eq(.name,' > /dev/null 2>&1 \
  || iqstatus=$?
if [ "$iqstatus" != 1 ]; then
  echo "FAIL: bad INDEXQ formula: expected exit 1, got $iqstatus" >&2
  exit 1
fi
iq_metrics=$(timeout 60 "$JSONLOGIC" client --socket "$ixsock" --server-metrics)
case $iq_metrics in
  *'"serve.indexq.requests":0'* | *'"serve.indexq.open_hits":0'*)
    echo "FAIL: INDEXQ counters never moved: $iq_metrics" >&2
    exit 1 ;;
  *"serve.indexq.requests"*) ;;
  *) echo "FAIL: serve metrics line lacks indexq counters: $iq_metrics" >&2
     exit 1 ;;
esac
stop_indexq_daemon
# other budget limits: a daemon under --max-depth 64 (deep enough for
# the replayed formulas and documents) answers like index query under
# the same flag, on both passes
start_indexq_daemon --max-depth 64
indexq_replay --max-depth 64
indexq_replay --max-depth 64
stop_indexq_daemon

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
if [ "$(wc -c < "$ixdir/big.idx")" -le 65536 ]; then
  echo "FAIL: the crash-safety index fits under the file-size limit" >&2
  exit 1
fi
cp "$ixdir/big.idx" "$ixdir/big.before"
fsz_status=0
fsz_out=$( (trap '' XFSZ; ulimit -f 64
            exec "$JSONLOGIC" index build "$big" -o "$ixdir/big.idx") 2>&1) \
  || fsz_status=$?
if [ "$fsz_status" != 1 ]; then
  echo "FAIL: size-limited rebuild: expected exit 1, got $fsz_status ($fsz_out)" >&2
  exit 1
fi
case $fsz_out in
  *"error: File too large"*) ;;
  *) echo "FAIL: size-limited rebuild did not stop at the limit: $fsz_out" >&2
     exit 1 ;;
esac
if ! cmp -s "$ixdir/big.idx" "$ixdir/big.before"; then
  echo "FAIL: size-limited rebuild changed the previous index" >&2
  exit 1
fi
if ls "$ixdir" | grep -q '\.tmp$'; then
  echo "FAIL: size-limited rebuild left a temporary file: $(ls "$ixdir")" >&2
  exit 1
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
if [ "$race_a" != 0 ] || [ "$race_b" != 0 ]; then
  echo "FAIL: concurrent builds exited $race_a and $race_b" >&2
  exit 1
fi
run 60 "$JSONLOGIC" index info "$ixdir/race.idx" > /dev/null
if ! cmp -s "$ixdir/race.idx" "$ixdir/big.idx" \
   && ! cmp -s "$ixdir/race.idx" "$ixdir/big2.idx"; then
  echo "FAIL: concurrent builds left a file equal to neither solo build" >&2
  exit 1
fi
rm -f "$big" "$big2" "$ixdir/big.idx" "$ixdir/big.before" "$ixdir/big2.idx" \
  "$ixdir/race.idx"

# Corpus index gate, part 2: the index stays queryable read-only —
# mmap needs no write access.
chmod 444 "$ixdir/corpus.idx"
ro=$(timeout 60 "$JSONLOGIC" index query "$ixdir/corpus.idx" '<.name.first>')
if [ "$ro" != "$jnl" ]; then
  echo "FAIL: read-only (chmod 444) index query differs" >&2
  exit 1
fi

# Corpus index gate, part 3: corruption and truncation are refused
# with a structured error (exit 1, error: line), never a crash.
idx_size=$(wc -c < "$ixdir/corpus.idx")
for ixoff in 9 $((idx_size / 2)); do
  cp "$ixdir/corpus.idx" "$ixdir/bad.idx"
  chmod 644 "$ixdir/bad.idx"
  printf '\252\252\252\252' \
    | dd of="$ixdir/bad.idx" bs=1 seek="$ixoff" conv=notrunc 2>/dev/null
  ixstatus=0
  ixout=$(timeout 60 "$JSONLOGIC" index query "$ixdir/bad.idx" \
    '<.name.first>' 2>&1) || ixstatus=$?
  if [ "$ixstatus" != 1 ]; then
    echo "FAIL: corrupted index (offset $ixoff): expected exit 1, got $ixstatus" >&2
    echo "$ixout" >&2
    exit 1
  fi
  case $ixout in
    *"error:"*) ;;
    *) echo "FAIL: corrupted index (offset $ixoff) did not print error:" >&2
       echo "$ixout" >&2
       exit 1 ;;
  esac
done
for ixlen in 100 $((idx_size / 3)) $((idx_size - 1)); do
  head -c "$ixlen" "$ixdir/corpus.idx" > "$ixdir/trunc.idx"
  ixstatus=0
  ixout=$(timeout 60 "$JSONLOGIC" index info "$ixdir/trunc.idx" 2>&1) \
    || ixstatus=$?
  if [ "$ixstatus" != 1 ]; then
    echo "FAIL: truncated index ($ixlen bytes): expected exit 1, got $ixstatus" >&2
    echo "$ixout" >&2
    exit 1
  fi
done
# a stale corpus (bytes appended after the build) is refused too
printf '\n{"late":1}\n' >> "$ndx"
ixstatus=0
ixout=$(timeout 60 "$JSONLOGIC" index query "$ixdir/corpus.idx" \
  '<.name.first>' 2>&1) || ixstatus=$?
if [ "$ixstatus" != 1 ]; then
  echo "FAIL: stale corpus: expected exit 1, got $ixstatus ($ixout)" >&2
  exit 1
fi
case $ixout in
  *"stale index"*) ;;
  *) echo "FAIL: stale corpus error does not say stale index: $ixout" >&2
     exit 1 ;;
esac
rm -rf "$ixdir"

# Corpus bench gate: indexed verdicts equal the reparse-everything
# baseline's on a generated mixed corpus, and the index clears 10x
# overall and 50x on the eq class (the bench exits 1 otherwise).  8 MB
# here for CI time; the default is 100 MB.
run 600 env BENCH_CORPUS_MB=8 _build/default/bench/main.exe corpus

# Aggregation CLI wiring: --files-from across 2 domains must be
# byte-identical to the sequential run on a grouping pipeline
# (streaming prefix sharded, blocking suffix joined in input order),
# over one file per document of a generated collection.
agdir="$tmp/agdir"
mkdir "$agdir"
agnd="$agdir/docs.ndjson"
: > "$agnd"
for i in $(seq 1 60); do
  if [ $((i % 3)) = 0 ]; then
    printf '{"orders":[{"status":"shipped","total":%d},{"total":%d}],"age":%d}\n' \
      "$i" $((i * 2)) $((i % 50)) >> "$agnd"
  elif [ $((i % 3)) = 1 ]; then
    printf '{"orders":[],"age":%d}\n' $((i % 50)) >> "$agnd"
  else
    printf '{"name":"n%d","age":%d}\n' "$i" $((i % 50)) >> "$agnd"
  fi
done
ag_list="$agdir/list"
: > "$ag_list"
n=0
while IFS= read -r agline; do
  n=$((n + 1))
  printf '%s' "$agline" > "$agdir/doc$n.json"
  echo "$agdir/doc$n.json" >> "$ag_list"
done < "$agnd"
grp_pl='[{"$match": {"orders": {"$exists": true}}}, {"$unwind": "$orders"},
         {"$group": {"_id": "$orders.status", "n": {"$count": {}},
                     "sum": {"$sum": "$orders.total"}}},
         {"$sort": {"sum": 0}}]'
ag1=$(timeout 120 "$JSONLOGIC" aggregate --files-from "$ag_list" --jobs 1 \
  "$grp_pl")
ag2=$(timeout 120 "$JSONLOGIC" aggregate --files-from "$ag_list" --jobs 2 \
  "$grp_pl")
if [ "$ag1" != "$ag2" ] || [ -z "$ag1" ]; then
  echo "FAIL: aggregate --jobs 1 and --jobs 2 disagree" >&2
  printf '%s\n---\n%s\n' "$ag1" "$ag2" >&2
  exit 1
fi
# ingestion is sharded too, yet the first bad file in list order (here
# a malformed one listed before a missing one) fails the run at every
# --jobs
printf '{"x":' > "$agdir/bad.json"
{ head -20 "$ag_list"; echo "$agdir/bad.json"; echo "$agdir/missing.json"
  tail -20 "$ag_list"; } > "$agdir/badlist"
ag_errs=""
for ag_jobs in 1 2; do
  ag_status=0
  ag_err=$(timeout 60 "$JSONLOGIC" aggregate --files-from "$agdir/badlist" \
    --jobs "$ag_jobs" "$grp_pl" 2>&1 >/dev/null) || ag_status=$?
  case $ag_status:$ag_err in
    "1:error: $agdir/bad.json: "*) ;;
    *) echo "FAIL: aggregate --jobs $ag_jobs over a bad list: exit $ag_status: $ag_err" >&2
       exit 1 ;;
  esac
  ag_errs="$ag_errs$ag_err
"
done
if [ "$(printf '%s' "$ag_errs" | sort -u | wc -l)" != 1 ]; then
  echo "FAIL: aggregate reports different first errors at --jobs 1 and 2" >&2
  printf '%s' "$ag_errs" >&2
  exit 1
fi
rm -rf "$agdir"

# Repository benchmark self-test: every workload at tiny sizes, every
# metric printed with its unit, the JSON keys exactly BENCHMARK.json's,
# and a corrupted expected answer counted as a failure.
run 600 python3 perfbench/run.py --self-test

# --metrics must produce the per-phase dump (on stderr)
metrics=$(echo '{"a":[1,2,1]}' | timeout 60 "$JSONLOGIC" parse --metrics - 2>&1 >/dev/null)
case $metrics in
  *"parse.values"*"phase.parse"*) ;;
  *) echo "FAIL: --metrics dump missing expected entries: $metrics" >&2
     exit 1 ;;
esac

echo "ci: all checks passed"
