(** The SIR-dataset stand-ins (Table IV): grep-, gzip-, sed- and
    bash-like subject programs with generated test cases. The first
    three are hand-written AppLang programs mirroring the real tools'
    structure (argument parsing, a line-processing main loop, helper
    functions); the bash-scale one comes from {!Proggen}. None of them
    touch the DB — they exercise scale, loops and recursion, exactly
    what the paper uses SIR for. Test-case counts are scaled down from
    the paper's (809/214/370/1061) to keep a pure-OCaml run tractable;
    the benches print the actual counts. *)

val app1 : unit -> Adprom.Pipeline.app
(** grep-like: pattern matching over an input file with plain / count /
    invert / prefix modes. 120 cases. *)

val app2 : unit -> Adprom.Pipeline.app
(** gzip-like: run-length compress / decompress / stats. 80 cases. *)

val app3 : unit -> Adprom.Pipeline.app
(** sed-like: substitute / delete / number over an input file.
    100 cases. *)

val app4 : ?cases:int -> ?spec:Proggen.spec -> unit -> Adprom.Pipeline.app
(** bash-scale generated program ({!Proggen.bash_like}). Default 300
    cases. *)

val all : unit -> (string * Adprom.Pipeline.app) list
(** [("App1", ...); ... ("App4", ...)] with default sizes. *)

val site_coverage :
  Analysis.Analyzer.t -> (Runtime.Testcase.t * Runtime.Collector.trace) list -> float
(** Fraction of static library-call sites exercised by the traces — the
    coverage figure reported in our Table IV (a stand-in for SIR's
    line/branch coverage, which needs source-line instrumentation we
    don't simulate). *)
