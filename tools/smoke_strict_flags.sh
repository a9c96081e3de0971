#!/usr/bin/env sh
# Strict-flags smoke: a flag no command reads (here the retired
# multi-thread and poll-loop flags) or a value that does not parse must
# fail the run with exit 2 and name the flag, before any work starts.
#
# Usage: smoke_strict_flags.sh <tcrowd_serverd> <tcrowd_cli>
set -u

serverd=$1
cli=$2
fail=0

# expect_refusal <flag named in the error> <command...>
expect_refusal() {
  flag=$1
  shift
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "smoke_strict_flags.sh: exit $code (want 2) from: $*" >&2
    fail=1
  elif ! printf '%s\n' "$out" | grep -q -- "$flag"; then
    echo "smoke_strict_flags.sh: error does not name $flag: $out" >&2
    fail=1
  else
    echo "refused $flag: $out"
  fi
}

world="--rows=12 --cols=3 --workers=8 --policy=looping --engine=mv --target=1"

# shellcheck disable=SC2086  # word-splitting the flag list is intended
expect_refusal --drivers "$cli" serve-sim $world --drivers=2
# shellcheck disable=SC2086
expect_refusal --racy "$cli" serve-sim $world --racy
# shellcheck disable=SC2086
expect_refusal --threads=abc "$cli" serve-sim $world --threads=abc
expect_refusal --rows "$cli" simulate --out=/nonexistent --dataset=restaurant \
  --rows=5
expect_refusal --workers "$cli" client --connect=127.0.0.1:1 --stats \
  --workers=8
# shellcheck disable=SC2086
expect_refusal --force-poll "$serverd" $world --force-poll \
  --listen=127.0.0.1:0

[ "$fail" -eq 0 ] || exit 1
echo "smoke_strict_flags.sh: OK"
