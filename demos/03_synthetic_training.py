"""Train the desk-scale classifier end to end on a synthetic corpus.

The corpus generator draws cartoon faces: a skin-toned disc with dark
eyes, optionally overlaid with a band across the lower half (worn mask),
the upper half only (incorrectly worn), or nothing.  Training follows
the two-phase transfer recipe: a frozen backbone while the head learns,
then fine-tuning of the last blocks at a lower rate.

Run:  python3 demos/03_synthetic_training.py   (about a minute on a laptop)
"""

import os
import tempfile

from maskdetect import (
    HeadConfig,
    TrainConfig,
    batches,
    build_model,
    desk_backbone,
    evaluate,
    pretrain_backbone,
    render_report,
    restore_state,
    save_checkpoint,
    load_into,
    split_dataset,
    synth_dataset,
    two_phase_train,
)

# the corpus and the donor checkpoint live in one directory, removed at the end
with tempfile.TemporaryDirectory(prefix="maskdemo_") as work:
    corpus_dir = os.path.join(work, "corpus")
    index = split_dataset(synth_dataset(60, 75, seed=11, out_dir=corpus_dir), seed=0)
    print("corpus:", index.split_counts())

    # a briefly pre-trained backbone stands in for published pretrained weights
    donor = pretrain_backbone(index, desk_backbone(), seed=0, epochs=4, batch_size=8)
    donor_path = os.path.join(work, "donor.ckpt")
    save_checkpoint(donor, donor_path)
    print("backbone pretrained and saved")

    model = build_model(
        desk_backbone(),
        HeadConfig(hidden_units=128, hidden_layers=2, dropout_rate=0.0),
        seed=0,
    )
    load_into(model, donor_path, prefix="backbone.")

    config = TrainConfig(
        epochs_phase1=5,   # frozen backbone, head only
        epochs_phase2=3,   # last two blocks unfrozen at a lower rate
        unfreeze_last_k=2,
        lr_phase1=1e-3,
        lr_phase2=2e-4,
        batch_size=8,
        seed=0,
        augment=None,
    )
    result = two_phase_train(model, index, config)
    for log in result.logs:
        print(f"  epoch {log.epoch} phase {log.phase}: "
              f"train {log.train_acc:.3f} val {log.val_acc:.3f}")

    # score the best-validation weights on the held-out split
    restore_state(model, result.best_state)
    test = evaluate(model, batches(index, "test", 32, shuffle=False, image_size=75))
    print()
    print(render_report(test.report))
    print(f"test accuracy {test.accuracy:.3f}")
