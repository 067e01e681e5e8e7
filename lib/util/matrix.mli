(** Dense linear algebra: the small kernel the circuit simulator (MNA) and
    the Formula-(3) least-squares fit need.  Row-major flat storage; the
    LU factors alone are stored row-compressed. *)

type t

(** Raised by [lu_factor] (and everything built on it) when the matrix is
    singular to working precision: [n] is the matrix order, [column] the
    elimination column and [pivot] the best |pivot| found there.  A printer
    is registered, so an uncaught one still renders the classic
    "Matrix.lu_factor: singular matrix (...)" message. *)
exception Singular of { n : int; column : int; pivot : float }

(** [create rows cols] is a zero matrix. *)
val create : int -> int -> t

(** [of_rows a] builds a matrix from an array of equal-length rows. *)
val of_rows : float array array -> t

(** [identity n] is the n-by-n identity. *)
val identity : int -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** [add_to m i j v] adds [v] to entry (i,j) — the MNA "stamp" primitive. *)
val add_to : t -> int -> int -> float -> unit

val copy : t -> t
val transpose : t -> t

(** [mul a b] is the matrix product. *)
val mul : t -> t -> t

(** [mulv a x] is the matrix–vector product. *)
val mulv : t -> float array -> float array

(** [nonzero_rows m] is [m] row-compressed, as [(ptr, col, v)]: row [i]
    holds the entries [v.(p)] at columns [col.(p)], [p] from [ptr.(i)]
    to [ptr.(i + 1) - 1], columns ascending and exact zeros left out. *)
val nonzero_rows : t -> int array * int array * float array

(** LU factorization with partial pivoting, reusable across many solves
    (the transient simulator factors once per timestep size).  The
    factors are kept row-compressed: each row stores only its non-zero
    entries, in ascending column order. *)
type lu

(** [lu_factor a] factors a square matrix by dense elimination, then
    compresses the factors.  Raises [Singular] if singular to working
    precision. *)
val lu_factor : t -> lu

(** [lu_solve lu b] solves [A x = b] for the factored [A]; [b] is not
    modified.  The substitutions walk only the factors' non-zero entries,
    in the dense algorithm's column order: a skipped term is an exact
    zero, so the result equals the dense forward and back substitution's
    (up to the sign of a zero). *)
val lu_solve : lu -> float array -> float array

(** [lu_solve_into lu b x] is [lu_solve lu b] written into [x] (of the
    same length; not [b]), allocating nothing — the transient
    simulator's per-step solve. *)
val lu_solve_into : lu -> float array -> float array -> unit

(** [solve a b] is [lu_solve (lu_factor a) b]. *)
val solve : t -> float array -> float array

(** [least_squares a b] minimizes ||A x - b||_2 via the normal equations
    (A is m-by-n with m >= n); returns the n coefficients. *)
val least_squares : t -> float array -> float array

(** [cholesky a] is the lower-triangular Cholesky factor of a symmetric
    positive-definite matrix; [None] if not positive definite.  Used to
    validate inductance matrices. *)
val cholesky : t -> t option

val pp : Format.formatter -> t -> unit
