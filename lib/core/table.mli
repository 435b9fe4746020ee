(** Plain-text table rendering for experiment output (the tables that
    generalize the paper's §3.2 figures; see EXPERIMENTS.md). *)

val render : header:string list -> rows:string list list -> string
(** Columns are padded to their widest cell; a rule separates the
    header. *)

val print : title:string -> header:string list -> rows:string list list -> unit
(** Render to stdout with an underlined title and a trailing blank
    line. The underline has one ['='] per UTF-8 code point of the
    title. *)

val ff : float -> string
(** Compact float: ["1.25"], ["inf"], ["-"] for nan. *)

val fi : int -> string
val fb : bool -> string
val fpct : float -> string
(** Percentage with one decimal: [0.5] -> ["50.0%"]. *)
