(** Typed failure taxonomy for the whole flow.

    Every way the pipeline can fail — malformed input, a disconnected
    routing grid, a singular MNA matrix, a crashed (or fault-injected)
    worker, a non-finite simulation value, a refused serve frame or
    peer, a refused command line — is one constructor of {!t}, and the
    taxonomy owns the {e single} mapping from failure class to GSL
    diagnostic code ({!gsl_code}) and to process exit code
    ({!exit_code}).  An infeasible SINO panel or an expired deadline is
    not a failure: the flow degrades and completes.  Libraries raise
    {!Error}; the CLIs and the serve daemon turn whatever reaches them
    into a typed error with {!classify}, so no bare [Failure] ever
    reaches the user.

    This module deliberately depends only on [eda_util]: payloads are
    plain ints/strings so the netlist loader, the linear-algebra kernel
    and the routers can all raise it without dependency cycles through
    [eda_check]. *)

type t =
  | Parse of { file : string option; line : int; token : string; msg : string }
      (** Malformed or unreadable netlist: [line] is 1-based (0 when the
          file itself could not be read), [token] the offending lexeme
          (may be [""] for structural errors). *)
  | Unreachable of { net : int; region : int }
      (** A net terminal sits in a region the router cannot reach. *)
  | Singular_matrix of { n : int; column : int; pivot : float }
      (** [Matrix.lu_factor] hit a zero pivot (see
          {!Eda_util.Matrix.Singular}). *)
  | Worker_crash of { site : string; msg : string }
      (** A worker (or fault-injection site) raised; [site] names the
          injection point or execution context. *)
  | Nonfinite of { site : string; what : string }
      (** A NaN/Inf escaped a numeric kernel. *)
  | Frame of { what : string; detail : string }
      (** A serve-protocol frame the daemon refuses to process: [what]
          names the violation (["oversized"], ["bad-json"], ["truncated"],
          ["bad-schema"], ...), [detail] elaborates. *)
  | Overload of { reason : string; depth : int }
      (** The daemon refused admission: [reason] is ["queue-full"] or
          ["draining"], [depth] the queue depth at rejection time. *)
  | Io of { site : string; msg : string }
      (** A peer or stream I/O failure (broken pipe, connection reset,
          refused connection): [site] names the syscall or stream. *)
  | Usage of { msg : string }
      (** A command line the CLIs refuse before any work starts: two
          artifact sinks both claiming stdout, a malformed
          [GSINO_FAULTS], an unknown circuit, or a journal, snapshot or
          policy file that cannot be read.  [msg] is the whole line. *)

exception Error of t

(** Stable kebab-case class name (["parse-error"], ["worker-crash"],
    ...), used in logs and the README table. *)
val class_name : t -> string

(** GSL diagnostic code for the class: 17 unreachable, 20 parse,
    21 singular, 22 worker crash, 23 non-finite, 29 usage, 30 bad frame,
    31 overloaded, 32 i/o. *)
val gsl_code : t -> int

(** Process exit code for the class: 2 usage/input (parse, unreachable,
    bad frame, usage), 5 internal (singular, crash, non-finite),
    6 overloaded, 7 i/o.  0 is success — possibly degraded — and 1 is
    lint findings/regression. *)
val exit_code : t -> int

(** Human-oriented one-line rendering (no class prefix). *)
val to_string : t -> string

(** [raise_ e] raises [Error e]. *)
val raise_ : t -> 'a

(** Fold a foreign exception into the taxonomy when a mapping exists
    ([Error] itself, [Matrix.Singular], pipe/reset [Unix_error]s and the
    [Sys_error] the runtime raises for EPIPE on stdio channels — both
    become {!Io}); [None] for anything else. *)
val of_exn : exn -> t option

(** [classify ~site exn] — the one entry-point funnel: {!of_exn}, or
    else [Worker_crash { site; msg }] carrying the exception's
    rendering.  [site] names the entry point that caught it. *)
val classify : site:string -> exn -> t
