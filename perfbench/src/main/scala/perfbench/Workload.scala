package perfbench

import repro.core.Types.{DatasetConfig, EncoderConfig, IndexConfig}
import repro.mmdata.Datasets

/** One benchmark input: a dataset analog, its encoder, and the index and
  * search settings the paper uses for it. The workload seed replaces
  * `DatasetConfig.seed`; the program only ever sees the generated vectors.
  *
  * Every workload searches for the top k = 10 over 1,000 evaluation
  * queries (`Workload.K`, `Workload.EvalQueries`).
  *
  * @param anchors   training queries for weight learning
  * @param baselines also build the m one-hot indexes and run MR and JE on them
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    dataset: Long => DatasetConfig,
    encoder: EncoderConfig,
    anchors: Int,
    index: IndexConfig,
    l: Int,
    baselines: Boolean,
)

object Workload {

  val K = 10
  /** Enough closed-loop samples for a p99 with ten samples beyond it. */
  val EvalQueries = 1000

  /** Table VII's "4M" point: one large fused build, a heavy search kernel
    * (l = 320) and a brute-force scan over a store larger than one core's L2. */
  val imageText12k: Workload = Workload(
    name = "imagetext-12k",
    defaultSeed = Datasets.imageText(12000).seed,
    dataset = seed => Datasets.imageText(12000, EvalQueries).copy(seed = seed),
    encoder = Datasets.imageTextEncoder,
    anchors = 200,
    index = IndexConfig(gamma = 24, epsilon = 3),
    l = 320,
    baselines = false,
  )

  /** Table VIII's framework comparison at m = 4: five small builds where
    * fixed Spark cost per stage dominates, Lemma 4 over four modalities,
    * MR running the kernel once per modality, and a store that fits in L2. */
  val celebAPlusM4: Workload = Workload(
    name = "celebaplus-m4",
    defaultSeed = Datasets.celebAPlus.seed,
    dataset = seed => Datasets.celebAPlus.copy(nQueries = EvalQueries, seed = seed),
    encoder = Datasets.celebAPlusEncoder,
    anchors = 250,
    index = IndexConfig(),
    l = 150,
    baselines = true,
  )

  /** Table VII's "2M" point, gated: the same layers as `imagetext-12k` at
    * half the build cost; the store (2.7 MB) is still larger than L2. */
  val imageText6k: Workload = imageText12k.copy(
    name = "imagetext-6k",
    dataset = seed => Datasets.imageText(6000, EvalQueries).copy(seed = seed),
  )

  /** Table VIII's CelebA+ at m' = 2, gated: three small builds instead of
    * five, MR and JE as at m = 4. */
  val celebAPlusM2: Workload = celebAPlusM4.copy(
    name = "celebaplus-m2",
    dataset = seed => Datasets.celebAPlus.copy(m = 2, nQueries = EvalQueries, seed = seed),
  )

  val all: Seq[Workload] = Seq(imageText6k, celebAPlusM2, imageText12k, celebAPlusM4)
}
