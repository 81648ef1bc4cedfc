#!/bin/sh
# Prints one block per `oscar-reports query` invocation over a short
# Pmake window: the command, its combined stdout and stderr, and its
# exit status. The list covers every recipe of the OBSERVABILITY.md
# query cookbook, filters and groups on every field of all four
# sources, numeric ranges, `--top`, and the compile errors of
# misspelled fields and values. `docs/golden_query.txt` is this
# script's output; CI regenerates it and compares the bytes.
#
# usage: docs/golden_query.sh target/release/oscar-reports > golden_query.txt
set -u
set -f
bin=$1
while IFS= read -r args; do
  echo "\$ oscar-reports query pmake 2000000 2000000 $args"
  # $args is deliberately unquoted: it is a flag list.
  "$bin" query pmake 2000000 2000000 $args 2>&1
  echo "exit $?"
  echo
done <<'EOF'
--where mode=os --where class=sharing --by cpu,region --top 10
--where op=io-syscall --by fetch,class
--where time=0..500000 --by kind
--where kind=writeback --where addr=0x0..0xfffff --by cpu
--source locks --where family=Runqlk --where phase=spin --by instance --agg hist:dur
--source locks --where phase=hold --by family --agg sum:dur --top 5
--source hotlines --by region --agg sum:misses --top 8
--source hotlines --where false_sharing=true --by symbol --agg sum:invals
--source waits --by lock,holder_op --agg sum:duration
--source waits --where lock=Runqlk --by waiter,holder
--source waits --where holder_op=interrupt --agg hist:duration
--where cpu=1 --where kind=read --by class
--where cpu=0,2 --where kind=read,writeback --where addr=0x100000..0x600000 --where time=100000..2000000 --by cpu,kind
--where cpu=0..63 --by cpu
--where cpu=1..2 --where time=100.. --where time=..1500000 --by mode,fetch --agg hist:time
--where addr=0x4000 --by kind
--where time=0 --by cpu,kind
--where class=disp_os --by class
--where region=run-queue,pcb --by op --agg sum:addr
--by cpu,kind,mode,fetch,class,op,region --top 20
--where fetch=instr --where mode=user,idle --by mode --agg hist:addr
--source locks --where cpu=0,1 --where instance=0..3 --where start=1000.. --where dur=..5000 --by cpu,phase --agg hist:start
--source locks --where family=Memlock,Runqlk --by family,instance,cpu,phase --top 12
--source hotlines --where sharers=3.. --where misses=2..1000 --where symbol=proc,pcb --by false_sharing,region --agg hist:score
--source hotlines --where invals=1.. --where churn=0..100 --where upgrades=0.. --where score=1.. --where addr=0x0..0xffffffff --by symbol --agg sum:churn --top 5
--source hotlines --where region=pcb,run-queue --agg hist:sharers
--source waits --where waiter=0,1 --where holder=0..3 --where duration=10.. --where truncated=false --by waiter,truncated --agg sum:duration
--source waits --where holder_op=dispatch,interrupt --by holder,holder_op
--where bogus=1
--where class=warm
--where kind=1..2
--where mode=os,kernel
--where cpu=x
--by time
--by nosuch
--agg sum:dur
--source locks --where family=Nosuch
--source locks --where phase=spin..hold
--source locks --by dur
--source locks --agg hist:addr
--source hotlines --where false_sharing=maybe
--source hotlines --where false_sharing=true,false
--source hotlines --where region=heap
--source hotlines --by score
--source hotlines --agg sum:upgrades
--source waits --where truncated=maybe
--source waits --where duration=1,x
--source waits --where lock=1..2
--source waits --by duration
--source waits --agg sum:dur
EOF
