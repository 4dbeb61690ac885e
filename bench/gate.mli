(** The committed gate file and its verdict.

    One row per line, ['#'] comments:

    {v
    alloc   <row> <words>          minor words per op, an exact budget
    growth  <row> <bound>          t(16n)/t(n) per op, measured in one run
    scaling <row> <speedup>        >= 4 cores only; fails below 70% of it
    regret  <family> <policy> <n>  tournament misses above OPT, exact
    v}

    [alloc], [growth] and [scaling] rows belong to the [perf] family,
    [regret] rows to [tournament]. A row is judged only when its family
    ran; a row whose family ran without producing its measurement
    fails. *)

type kind = Alloc | Growth | Scaling | Regret

type row = { kind : kind; key : string; limit : float }
(** [key] is a perf row name, or ["<family> <policy>"] for [Regret]. *)

type measurement = kind * string * float

val parse : file:string -> string -> (row list, string) result
(** Rows of a gate file's contents. An error names [file], the line
    number and what is wrong with the line. *)

val load : string -> (row list, string) result

val check :
  Format.formatter ->
  file:string ->
  cores:int ->
  ran:string list ->
  measured:measurement list ->
  row list ->
  int
(** Print one line per row whose family is in [ran], then the
    measurements no row covers, then the verdict; return the exit
    code: 0 when every judged row holds, 1 when any fails, 2 when no
    row's family ran. *)
